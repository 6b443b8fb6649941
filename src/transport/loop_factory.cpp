// Backend selection for the real-network event loop: parses the
// --event-loop flag value, probes the running kernel for the io_uring
// features UringLoop needs, and constructs the chosen backend with a
// graceful fallback to epoll.

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>

#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "transport/epoll_loop.hpp"
#include "transport/net_util.hpp"
#include "transport/transport.hpp"
#include "transport/uring_loop.hpp"

namespace md {

namespace {

// One-shot kernel probe: set up a tiny ring, verify the feature bits and the
// provided-buffer-ring registration the UringLoop depends on, tear down.
// Failure reasons are kept for the warning CreateNetLoop emits.
struct UringProbe {
  bool available = false;
  std::string whyNot;
};

UringProbe RunUringProbe() {
  UringProbe probe;
  io_uring_params params{};
  const int fd = static_cast<int>(::syscall(__NR_io_uring_setup, 4, &params));
  if (fd < 0) {
    probe.whyNot = Format("io_uring_setup failed: %s (kernel too old or "
                          "io_uring disabled)",
                          std::strerror(errno));
    return probe;
  }
  if ((params.features & IORING_FEAT_EXT_ARG) == 0) {
    probe.whyNot = "kernel lacks IORING_FEAT_EXT_ARG (needs >= 5.11)";
    ::close(fd);
    return probe;
  }
  // Multishot recv needs a registered provided-buffer ring (>= 5.19).
  void* ring = ::mmap(nullptr, 8 * sizeof(io_uring_buf), PROT_READ | PROT_WRITE,
                      MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
  if (ring == MAP_FAILED) {
    probe.whyNot = Format("mmap: %s", std::strerror(errno));
    ::close(fd);
    return probe;
  }
  io_uring_buf_reg reg{};
  reg.ring_addr = reinterpret_cast<std::uint64_t>(ring);
  reg.ring_entries = 8;
  reg.bgid = 0;
  const int rc = static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, IORING_REGISTER_PBUF_RING, &reg, 1));
  if (rc < 0) {
    probe.whyNot = Format("provided buffer rings unsupported: %s (needs "
                          ">= 5.19)",
                          std::strerror(errno));
  } else {
    probe.available = true;
  }
  ::munmap(ring, 8 * sizeof(io_uring_buf));
  ::close(fd);
  return probe;
}

const UringProbe& CachedProbe() {
  static const UringProbe probe = RunUringProbe();
  return probe;
}

}  // namespace

std::optional<LoopKind> ParseLoopKind(std::string_view name) {
  if (name == "epoll") return LoopKind::kEpoll;
  if (name == "io_uring" || name == "uring") return LoopKind::kIoUring;
  return std::nullopt;
}

const char* LoopKindName(LoopKind kind) noexcept {
  switch (kind) {
    case LoopKind::kEpoll:
      return "epoll";
    case LoopKind::kIoUring:
      return "io_uring";
  }
  return "unknown";
}

bool IoUringAvailable(std::string* whyNot) {
  const UringProbe& probe = CachedProbe();
  if (!probe.available && whyNot != nullptr) *whyNot = probe.whyNot;
  return probe.available;
}

std::unique_ptr<NetLoop> CreateNetLoop(LoopKind kind) {
  if (kind == LoopKind::kIoUring) {
    std::string whyNot;
    if (!IoUringAvailable(&whyNot)) {
      MD_WARN("io_uring requested but unavailable (%s); falling back to epoll",
              whyNot.c_str());
      return std::make_unique<EpollLoop>();
    }
    auto loop = UringLoop::Create();
    if (loop.ok()) return std::move(*loop);
    MD_WARN("io_uring init failed (%s); falling back to epoll",
            loop.status().message().c_str());
    return std::make_unique<EpollLoop>();
  }
  return std::make_unique<EpollLoop>();
}

Result<std::uint16_t> ProbeExclusivePort(std::uint16_t port) {
  auto sock = net::CreateListenSocket(port, /*reusePort=*/false);
  if (!sock.ok()) return sock.status();
  ::close(sock->fd);
  return sock->port;
}

}  // namespace md
