// Round-trip tests for the proto wire codec (src/emst/proto/).
//
// The contract under test: for every driver message, encode() emits exactly
// encoded_bits() bits, decode() consumes exactly that many, and the decoded
// value equals the original. max_encoded_bits() dominates every concrete
// encoding of its type, which is what lets the choreographed sync driver
// bill worst-case sizes while the actor drivers bill exact ones.
#include <cstdint>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "emst/proto/connt_wire.hpp"
#include "emst/proto/ghs_wire.hpp"
#include "emst/proto/wire.hpp"
#include "emst/sim/wire.hpp"

namespace emst::proto {
namespace {

TEST(BitWidth, MatchesHighestSetBit) {
  EXPECT_EQ(bit_width(0), 0u);
  EXPECT_EQ(bit_width(1), 1u);
  EXPECT_EQ(bit_width(2), 2u);
  EXPECT_EQ(bit_width(3), 2u);
  EXPECT_EQ(bit_width(255), 8u);
  EXPECT_EQ(bit_width(256), 9u);
  EXPECT_EQ(bit_width(std::uint64_t{1} << 63), 64u);
}

TEST(BitCodec, MsbFirstLayout) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0b1, 1);
  // Fields pack from the byte's most significant bit down: 1011'0000.
  ASSERT_EQ(w.bytes().size(), 1u);
  EXPECT_EQ(w.bytes()[0], 0b1011'0000);
  EXPECT_EQ(w.bit_count(), 4u);
}

TEST(BitCodec, RoundTripAcrossByteBoundaries) {
  BitWriter w;
  w.write(0xABCD, 16);
  w.write(5, 3);          // straddles the second/third byte
  w.write(0, 7);          // zero field still occupies its width
  w.write(0x1FFFF, 17);   // wider than two bytes
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(16), 0xABCDu);
  EXPECT_EQ(r.read(3), 5u);
  EXPECT_EQ(r.read(7), 0u);
  EXPECT_EQ(r.read(17), 0x1FFFFu);
  EXPECT_EQ(r.bit_count(), w.bit_count());
}

TEST(BitCodec, FullWidthField) {
  const std::uint64_t value = 0xDEADBEEFCAFEF00D;
  BitWriter w;
  w.write(value, 64);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(64), value);
}

TEST(BitCodecDeathTest, OverflowingFieldAborts) {
  BitWriter w;
  EXPECT_DEATH(w.write(2, 1), "overflow");
}

TEST(BitCodecDeathTest, ReadPastEndAborts) {
  BitWriter w;
  w.write(1, 1);
  BitReader r(w.bytes());
  (void)r.read(8);  // within the padded byte
  EXPECT_DEATH((void)r.read(1), "past end");
}

TEST(WireContext, ForTopologyDerivesLogWidths) {
  const WireContext ctx = WireContext::for_topology(1024, 5000);
  EXPECT_EQ(ctx.id_bits, 10u);    // max id 1023
  EXPECT_EQ(ctx.edge_bits, 13u);  // max index 4999
  EXPECT_EQ(ctx.level_bits, 4u);  // levels <= 10
  EXPECT_EQ(ctx.count_bits, 11u); // sizes up to 1024 inclusive
  EXPECT_EQ(ctx.coord_bits, 11u);
  EXPECT_EQ(ctx.frag_bits, ctx.edge_bits);
}

TEST(WireContext, DegenerateTopologyKeepsNonzeroWidths) {
  const WireContext ctx = WireContext::for_topology(1, 0);
  EXPECT_EQ(ctx.id_bits, 1u);
  EXPECT_EQ(ctx.edge_bits, 1u);
  EXPECT_EQ(ctx.level_bits, 1u);
  EXPECT_EQ(ctx.count_bits, 2u);
  EXPECT_EQ(ctx.coord_bits, 2u);
  EXPECT_EQ(ctx.frag_bits, 1u);
}

/// Encode through the variant codec (tag + payload), decode back, and check
/// both bit counts against encoded_bits().
template <typename M>
void expect_ghs_roundtrip(const M& m, const WireContext& ctx) {
  const GhsMsg msg{m};
  BitWriter w;
  encode(msg, w, ctx);
  EXPECT_EQ(w.bit_count(), encoded_bits(msg, ctx));
  BitReader r(w.bytes());
  const GhsMsg back = decode_ghs(r, ctx);
  EXPECT_EQ(r.bit_count(), w.bit_count());
  ASSERT_TRUE(std::holds_alternative<M>(back));
  EXPECT_EQ(std::get<M>(back), m);
}

WireContext ghs_ctx() { return WireContext::for_topology(1000, 8000); }

TEST(GhsWire, AllTypesRoundTrip) {
  const WireContext ctx = ghs_ctx();
  expect_ghs_roundtrip(GhsConnect{7}, ctx);
  expect_ghs_roundtrip(GhsInitiate{9, 4211, GhsNodeState::kFound}, ctx);
  expect_ghs_roundtrip(GhsTest{3, 17}, ctx);
  expect_ghs_roundtrip(GhsAccept{}, ctx);
  expect_ghs_roundtrip(GhsReject{}, ctx);
  expect_ghs_roundtrip(GhsReport{42}, ctx);
  expect_ghs_roundtrip(GhsReport{kInfEdge}, ctx);
  expect_ghs_roundtrip(GhsChangeRoot{}, ctx);
  expect_ghs_roundtrip(GhsAnnounce{7999}, ctx);
}

TEST(GhsWire, MaxFieldValuesRoundTrip) {
  const WireContext ctx = ghs_ctx();
  const auto max_of = [](std::uint32_t width) {
    return static_cast<std::uint32_t>((std::uint64_t{1} << width) - 1);
  };
  expect_ghs_roundtrip(GhsConnect{max_of(ctx.level_bits)}, ctx);
  expect_ghs_roundtrip(GhsInitiate{max_of(ctx.level_bits),
                                   max_of(ctx.frag_bits),
                                   GhsNodeState::kSleeping},
                       ctx);
  expect_ghs_roundtrip(GhsTest{max_of(ctx.level_bits), max_of(ctx.frag_bits)},
                       ctx);
  expect_ghs_roundtrip(GhsReport{max_of(ctx.edge_bits)}, ctx);
  expect_ghs_roundtrip(GhsAnnounce{max_of(ctx.frag_bits)}, ctx);
}

TEST(GhsWire, ReportPresenceBitSizes) {
  const WireContext ctx = ghs_ctx();
  // "No outgoing edge" is one presence bit; a concrete edge adds its index.
  EXPECT_EQ(GhsReport{kInfEdge}.encoded_bits(ctx), kGhsTagBits + 1);
  EXPECT_EQ(GhsReport{42}.encoded_bits(ctx), kGhsTagBits + 1 + ctx.edge_bits);
}

TEST(GhsWire, FixedSizesMatchLayout) {
  const WireContext ctx = ghs_ctx();
  EXPECT_EQ(GhsConnect{}.encoded_bits(ctx), kGhsTagBits + ctx.level_bits);
  EXPECT_EQ(GhsInitiate{}.encoded_bits(ctx),
            kGhsTagBits + ctx.level_bits + ctx.frag_bits + kGhsStateBits);
  EXPECT_EQ(GhsTest{}.encoded_bits(ctx),
            kGhsTagBits + ctx.level_bits + ctx.frag_bits);
  EXPECT_EQ(GhsAccept{}.encoded_bits(ctx), kGhsTagBits);
  EXPECT_EQ(GhsReject{}.encoded_bits(ctx), kGhsTagBits);
  EXPECT_EQ(GhsChangeRoot{}.encoded_bits(ctx), kGhsTagBits);
  EXPECT_EQ(GhsAnnounce{}.encoded_bits(ctx), kGhsTagBits + ctx.frag_bits);
}

TEST(GhsWire, PerStructEncodeOmitsTheTag) {
  // The variant codec writes the 3-bit tag; the per-struct encode() writes
  // payload only. encoded_bits() always includes the tag.
  const WireContext ctx = ghs_ctx();
  const GhsTest m{3, 17};
  BitWriter w;
  m.encode(w, ctx);
  EXPECT_EQ(w.bit_count(), m.encoded_bits(ctx) - kGhsTagBits);
}

TEST(GhsWire, TypeOfFollowsVariantOrder) {
  EXPECT_EQ(type_of(GhsMsg{GhsConnect{}}), GhsMsgType::kConnect);
  EXPECT_EQ(type_of(GhsMsg{GhsInitiate{}}), GhsMsgType::kInitiate);
  EXPECT_EQ(type_of(GhsMsg{GhsTest{}}), GhsMsgType::kTest);
  EXPECT_EQ(type_of(GhsMsg{GhsAccept{}}), GhsMsgType::kAccept);
  EXPECT_EQ(type_of(GhsMsg{GhsReject{}}), GhsMsgType::kReject);
  EXPECT_EQ(type_of(GhsMsg{GhsReport{}}), GhsMsgType::kReport);
  EXPECT_EQ(type_of(GhsMsg{GhsChangeRoot{}}), GhsMsgType::kChangeRoot);
  EXPECT_EQ(type_of(GhsMsg{GhsAnnounce{}}), GhsMsgType::kAnnounce);
}

TEST(GhsWire, MaxEncodedBitsDominatesEveryEncoding) {
  const WireContext ctx = ghs_ctx();
  const std::vector<GhsMsg> samples = {
      GhsConnect{7},  GhsInitiate{9, 4211, GhsNodeState::kFind},
      GhsTest{3, 17}, GhsAccept{},
      GhsReject{},    GhsReport{42},
      GhsReport{kInfEdge}, GhsChangeRoot{},
      GhsAnnounce{7999}};
  for (const GhsMsg& m : samples) {
    EXPECT_GE(max_encoded_bits(type_of(m), ctx), encoded_bits(m, ctx))
        << ghs_msg_type_name(type_of(m));
  }
  // REPORT's worst case is the present-edge branch.
  EXPECT_EQ(max_encoded_bits(GhsMsgType::kReport, ctx),
            GhsReport{0}.encoded_bits(ctx));
}

TEST(ConntWire, QuantizeClampsToTheGrid) {
  const WireContext ctx = WireContext::for_topology(256, 1000);
  const std::uint32_t cells = 1u << ctx.coord_bits;
  EXPECT_EQ(quantize_coord(0.0, ctx), 0u);
  EXPECT_EQ(quantize_coord(-0.5, ctx), 0u);
  EXPECT_EQ(quantize_coord(1.0, ctx), cells - 1);
  EXPECT_EQ(quantize_coord(1.5, ctx), cells - 1);
  EXPECT_EQ(quantize_coord(0.5, ctx), cells / 2);
}

TEST(ConntWire, AllTypesRoundTrip) {
  const WireContext ctx = WireContext::for_topology(256, 1000);
  const std::vector<ConntMsg> samples = {
      ConntMsg{ConntRequest::from_point({0.25, 0.75}, ctx)},
      ConntMsg{ConntReply::from_point({0.999, 0.001}, ctx)},
      ConntMsg{ConntConnect{}}};
  for (const ConntMsg& m : samples) {
    BitWriter w;
    encode(m, w, ctx);
    EXPECT_EQ(w.bit_count(), encoded_bits(m, ctx));
    BitReader r(w.bytes());
    const ConntMsg back = decode_connt(r, ctx);
    EXPECT_EQ(r.bit_count(), w.bit_count());
    EXPECT_EQ(back, m);
  }
}

TEST(ConntWire, SizesMatchLayout) {
  const WireContext ctx = WireContext::for_topology(256, 1000);
  EXPECT_EQ(ConntRequest{}.encoded_bits(ctx),
            kConntTagBits + 2 * ctx.coord_bits);
  EXPECT_EQ(ConntReply{}.encoded_bits(ctx),
            kConntTagBits + 2 * ctx.coord_bits);
  EXPECT_EQ(ConntConnect{}.encoded_bits(ctx), kConntTagBits);
}

TEST(WireFormatHook, PrimaryTemplateIsUnmeasured) {
  const sim::WireFormat<int> fmt;
  static_assert(!sim::WireFormat<int>::kMeasured);
  EXPECT_EQ(fmt.bits(5), 0u);
}

TEST(WireFormatHook, GhsSpecializationBillsEncodedBits) {
  sim::WireFormat<GhsMsg> fmt;
  fmt.ctx = ghs_ctx();
  static_assert(sim::WireFormat<GhsMsg>::kMeasured);
  const GhsMsg m{GhsTest{3, 17}};
  EXPECT_EQ(fmt.bits(m), encoded_bits(m, fmt.ctx));
}

TEST(WireFormatHook, ConntSpecializationBillsEncodedBits) {
  sim::WireFormat<ConntMsg> fmt;
  fmt.ctx = WireContext::for_topology(256, 1000);
  static_assert(sim::WireFormat<ConntMsg>::kMeasured);
  const ConntMsg m{ConntRequest{3, 4}};
  EXPECT_EQ(fmt.bits(m), encoded_bits(m, fmt.ctx));
}

}  // namespace
}  // namespace emst::proto
