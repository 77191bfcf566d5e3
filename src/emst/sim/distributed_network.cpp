#include "emst/sim/distributed_network.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace emst::sim::dist {
namespace {

const char* opcode_name(std::uint8_t op) {
  switch (op) {
    case proto::kDistOpDesync: return "desync";
    case proto::kDistOpActorRound: return "actor-round";
    case proto::kDistOpActorDrained: return "actor-drained";
    case proto::kDistOpActorStep: return "actor-step";
    case proto::kDistOpActorStepped: return "actor-stepped";
    case proto::kDistOpActorHarvest: return "actor-harvest";
    case proto::kDistOpActorHarvested: return "actor-harvested";
    default: return "?";
  }
}

/// Reap `pid` into `status`; returns false if it is still running. A rank
/// whose channel just died, or that just sent DESYNC, closes its end before
/// it becomes reapable, so when `exiting` the probe repeats for a bounded
/// time instead of misreporting a dying rank as running.
bool reap(pid_t pid, int* status, bool exiting) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 || !exiting || Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

void ProcessGroup::spawn(std::size_t count, const ChildEntry& entry) {
  EMST_ASSERT(eps_.empty() && count > 0);
  // All channels exist before the first fork so every child can close every
  // descriptor that is not its own. socketpair (not a listening port) makes
  // allocation race-free by construction: no port numbers, no bind retries.
  std::vector<std::array<int, 2>> pairs(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pairs[i].data()) != 0) {
      std::perror("emst distributed engine: socketpair");
      std::abort();
    }
  }
  eps_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("emst distributed engine: fork");
      std::abort();
    }
    if (pid == 0) {
      // Child: keep exactly one descriptor — its own channel end. Closing
      // the rest means a parent or sibling death is visible as EOF here,
      // and our death is visible as EOF there; no descriptor leaks keep a
      // dead channel artificially open.
      for (std::size_t j = 0; j < count; ++j) {
        if (j != i) {
          ::close(pairs[j][0]);
          ::close(pairs[j][1]);
        }
      }
      ::close(pairs[i][0]);
      // _exit, not exit: the child shares the parent's stdio buffers and
      // atexit list and must not flush or run either.
      ::_exit(entry(pairs[i][1], i));
    }
    ::close(pairs[i][1]);
    Endpoint ep;
    ep.fd = pairs[i][0];
    ep.pid = pid;
    eps_.push_back(std::move(ep));
  }
}

ProcessGroup::~ProcessGroup() {
  // Closing the channel is the shutdown signal: the rank's read loop sees
  // EOF and _exit(0)s. waitpid then reaps it — no zombies survive the
  // engine, and a rank that died early is reaped here too.
  for (const Endpoint& ep : eps_) {
    if (ep.fd >= 0) ::close(ep.fd);
  }
  for (const Endpoint& ep : eps_) {
    if (ep.pid > 0) (void)::waitpid(ep.pid, nullptr, 0);
  }
}

void ProcessGroup::send_frame(std::size_t rank,
                              const std::vector<std::uint8_t>& body) {
  EMST_ASSERT(rank < eps_.size());
  EMST_ASSERT(body.size() <= proto::kDistMaxFramePayloadBytes);
  std::vector<std::uint8_t>& out = frame_scratch_;
  out.clear();
  out.push_back(static_cast<std::uint8_t>(proto::kDistProtocolVersion >> 8));
  out.push_back(static_cast<std::uint8_t>(proto::kDistProtocolVersion));
  const auto len = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(len >> 24));
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len));
  out.insert(out.end(), body.begin(), body.end());
  if (!apps::detail::write_all(eps_[rank].fd, out.data(), out.size()))
    fatal(rank, "write to rank failed", /*exiting=*/true);
  bytes_sent_ += out.size();
}

serve::Frame ProcessGroup::read_frame(std::size_t rank) {
  EMST_ASSERT(rank < eps_.size());
  Endpoint& ep = eps_[rank];
  serve::Frame frame;
  std::uint8_t buf[1 << 14];
  while (!ep.in.next(frame)) {
    if (ep.in.corrupt()) fatal(rank, "corrupt frame stream from rank");
    const ssize_t n = ::read(ep.fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      fatal(rank, "read from rank failed", /*exiting=*/true);
    }
    if (n == 0) fatal(rank, "rank channel closed mid-round", /*exiting=*/true);
    ep.in.feed(buf, static_cast<std::size_t>(n));
    bytes_received_ += static_cast<std::uint64_t>(n);
  }
  return frame;
}

void ProcessGroup::log_collective(std::size_t rank, std::uint8_t opcode,
                                  std::uint64_t round, std::uint32_t count,
                                  std::uint64_t hash) {
  Endpoint& ep = eps_[rank];
  ep.log[ep.log_next % kCollectiveLogSize] = {opcode, round, count, hash};
  ++ep.log_next;
}

void ProcessGroup::fatal(std::size_t rank, const std::string& what,
                         bool exiting) {
  std::fprintf(stderr,
               "emst distributed engine: rank %zu failed at round %llu: %s\n",
               rank, static_cast<unsigned long long>(round_), what.c_str());
  // Report what became of the child — a crashed rank shows its exit status
  // or signal here instead of leaving a silent hang.
  if (rank < eps_.size() && eps_[rank].pid > 0) {
    int status = 0;
    if (reap(eps_[rank].pid, &status, exiting)) {
      eps_[rank].pid = -1;
      if (WIFEXITED(status)) {
        std::fprintf(stderr, "emst distributed engine: rank %zu exited with status %d\n",
                     rank, WEXITSTATUS(status));
      } else if (WIFSIGNALED(status)) {
        std::fprintf(stderr, "emst distributed engine: rank %zu killed by signal %d\n",
                     rank, WTERMSIG(status));
      }
    } else {
      std::fprintf(stderr, "emst distributed engine: rank %zu still running\n",
                   rank);
    }
  }
  if (rank < eps_.size() && eps_[rank].log_next > 0) {
    const Endpoint& ep = eps_[rank];
    std::fprintf(stderr,
                 "emst distributed engine: recent collectives with rank %zu:\n",
                 rank);
    const std::size_t first =
        ep.log_next > kCollectiveLogSize ? ep.log_next - kCollectiveLogSize : 0;
    for (std::size_t i = first; i < ep.log_next; ++i) {
      const CollectiveLogEntry& e = ep.log[i % kCollectiveLogSize];
      std::fprintf(stderr,
                   "  #%zu %s round=%llu count=%u hash=%016llx\n", i,
                   opcode_name(e.opcode),
                   static_cast<unsigned long long>(e.round), e.count,
                   static_cast<unsigned long long>(e.hash));
    }
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace emst::sim::dist
