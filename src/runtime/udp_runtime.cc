#include "runtime/udp_runtime.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>

#include "common/blob.h"
#include "common/serialization.h"
#include "net/message.h"
#include "obs/snapshot.h"

namespace lls {

namespace {
constexpr std::size_t kHeaderSize = sizeof(std::uint32_t) + sizeof(std::uint16_t);
/// 65507 bytes, the IPv4 UDP maximum: every datagram the kernel accepts
/// fits one receive slab.
constexpr std::size_t kMaxDatagram = kHeaderSize + kMaxFramePayload;
/// Outbound coalescing: flush threshold and sendmmsg(2) chunk size.
constexpr std::size_t kSendBatch = 64;
/// Inbound: datagrams drained per recvmmsg(2) call.
constexpr std::size_t kRecvBatch = 16;
}  // namespace

UdpNode::UdpNode(UdpNodeConfig config, std::unique_ptr<Actor> actor)
    : config_(config),
      actor_(std::move(actor)),
      rng_(config.seed ^ (config.id + 1)),
      epoch_(std::chrono::steady_clock::now()) {
  obs::Registry& reg = plane_.registry();
  datagrams_sent_ = &reg.counter("udp.datagrams_sent");
  bytes_sent_ = &reg.counter("udp.bytes_sent");
  datagrams_received_ = &reg.counter("udp.datagrams_received");
  frames_rejected_ = &reg.counter("udp.frames_rejected");
  sendmmsg_calls_ = &reg.counter("udp.sendmmsg_calls");
  recvmmsg_calls_ = &reg.counter("udp.recvmmsg_calls");
  poll_calls_ = &reg.counter("udp.poll_calls");
  idle_us_ = &reg.counter("udp.idle_us");
  pool_hits_ = &reg.counter("udp.pool_hits");
  pool_misses_ = &reg.counter("udp.pool_misses");
}

UdpNode::~UdpNode() {
  stop();
  if (fd_ >= 0) ::close(fd_);
}

TimePoint UdpNode::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void UdpNode::start() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port =
      htons(static_cast<std::uint16_t>(config_.base_port + config_.id));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad host address: " + config_.host);
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("bind() failed on port " +
                             std::to_string(config_.base_port + config_.id));
  }
  // Resolve every peer once; the send path then never touches inet_pton.
  peer_addr_.assign(static_cast<std::size_t>(config_.n), sockaddr_in{});
  for (ProcessId dst = 0; dst < static_cast<ProcessId>(config_.n); ++dst) {
    sockaddr_in& peer = peer_addr_[dst];
    peer.sin_family = AF_INET;
    peer.sin_port = htons(static_cast<std::uint16_t>(config_.base_port + dst));
    ::inet_pton(AF_INET, config_.host.c_str(), &peer.sin_addr);
  }
#if defined(__linux__)
  recv_bufs_.resize(kRecvBatch);
#else
  recv_bufs_.resize(1);
#endif
  for (Bytes& slab : recv_bufs_) slab.resize(kMaxDatagram);
  sendq_.reserve(kSendBatch);
  running_.store(true);
  thread_ = std::thread([this]() {
    actor_->on_start(*this);
    run();
  });

  if (config_.stats_port != 0) {
    const std::uint16_t port =
        config_.stats_port == kAnyStatsPort ? 0 : config_.stats_port;
    // The handler runs on the server thread; the registry is only touched
    // on the loop thread, so capture is posted there and awaited. stop()
    // shuts the server down before the loop, so a posted capture always
    // drains and the future always resolves.
    stats_server_ = std::make_unique<StatsHttpServer>(
        port, [this](const std::string& path) -> std::string {
          std::promise<std::string> rendered;
          auto result = rendered.get_future();
          post([this, &path, &rendered]() {
            if (path == "/metrics") {
              rendered.set_value(obs::render_prometheus(plane_.registry()));
            } else if (path == "/metrics.json") {
              rendered.set_value(obs::render_json(plane_.registry()));
            } else {
              rendered.set_value(std::string());
            }
          });
          return result.get();
        });
    stats_server_->start();
  }
}

void UdpNode::stop() {
  if (stats_server_ != nullptr) {
    stats_server_->stop();
    stats_server_.reset();
  }
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

std::uint16_t UdpNode::stats_port() const {
  return stats_server_ != nullptr ? stats_server_->port() : 0;
}

void UdpNode::post(std::function<void()> fn) { loop_.post(std::move(fn)); }

void UdpNode::send(ProcessId dst, MessageType type, BytesView payload) {
  if (dst == config_.id || dst >= static_cast<ProcessId>(config_.n)) return;
  PooledBuffer frame(pool_, pool_.acquire(kHeaderSize + payload.size()));
  std::uint32_t src = config_.id;
  std::uint16_t t = type;
  std::byte* out = frame.bytes().data();
  std::memcpy(out, &src, sizeof(src));
  std::memcpy(out + sizeof(src), &t, sizeof(t));
  if (!payload.empty()) {
    std::memcpy(out + kHeaderSize, payload.data(), payload.size());
  }
  datagrams_sent_->inc();
  bytes_sent_->inc(frame.size());
  sendq_.push_back(PendingSend{dst, std::move(frame)});
  if (sendq_.size() >= kSendBatch) flush_sends();
}

void UdpNode::flush_sends() {
  if (sendq_.empty()) return;
#if defined(__linux__)
  std::size_t done = 0;
  while (done < sendq_.size()) {
    const std::size_t batch = std::min(kSendBatch, sendq_.size() - done);
    mmsghdr msgs[kSendBatch];
    iovec iov[kSendBatch];
    std::memset(msgs, 0, batch * sizeof(mmsghdr));
    for (std::size_t i = 0; i < batch; ++i) {
      PendingSend& p = sendq_[done + i];
      iov[i].iov_base = p.frame.bytes().data();
      iov[i].iov_len = p.frame.size();
      msgs[i].msg_hdr.msg_name = &peer_addr_[p.dst];
      msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    int sent = ::sendmmsg(fd_, msgs, static_cast<unsigned>(batch), 0);
    sendmmsg_calls_->inc();
    // sendmmsg stops at the first frame the kernel refuses (e.g. EMSGSIZE),
    // returning the count sent before it, or -1 when it is the first one.
    // Drop only that frame, as link loss, and resume right after it; the
    // frames queued behind it (heartbeats included) still go out.
    done += sent > 0 ? static_cast<std::size_t>(sent) : 1;
  }
#else
  // Fire-and-forget: UDP send failures are indistinguishable from link
  // loss, which the protocols tolerate by design.
  for (PendingSend& p : sendq_) {
    ::sendto(fd_, p.frame.bytes().data(), p.frame.size(), 0,
             reinterpret_cast<const sockaddr*>(&peer_addr_[p.dst]),
             sizeof(sockaddr_in));
  }
#endif
  sendq_.clear();  // ~PooledBuffer returns every frame to the pool
  sync_pool_counters();
}

void UdpNode::sync_pool_counters() {
  pool_hits_->inc(pool_.hits() - synced_pool_hits_);
  synced_pool_hits_ = pool_.hits();
  pool_misses_->inc(pool_.misses() - synced_pool_misses_);
  synced_pool_misses_ = pool_.misses();
}

TimerId UdpNode::set_timer(Duration delay) {
  return loop_.set_timer(now(), delay);
}

void UdpNode::cancel_timer(TimerId timer) { loop_.cancel_timer(timer); }

void UdpNode::run() {
  const std::function<void(TimerId)> fire_timer = [this](TimerId timer) {
    actor_->on_timer(*this, timer);
  };
  while (running_.load()) {
    loop_.run_pass(now(), fire_timer);

    // Everything queued by the callbacks above leaves in one batch before
    // the loop blocks; nothing sits in the queue across a wait.
    flush_sends();

    // Sleep until a datagram arrives or the next deadline, whichever is
    // first. The kernel does not end a timeout early and now() truncates to
    // whole µs, so the next pass's cutoff is at or past the deadline and
    // its timer fires then: one wake per deadline.
    const TimePoint blocked_at = now();
    const Duration wait = loop_.next_wait(blocked_at);
    pollfd pfd{fd_, POLLIN, 0};
#if defined(__linux__)
    const timespec timeout{static_cast<time_t>(wait / kSecond),
                           static_cast<long>(wait % kSecond) * 1000};
    const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
#else
    const int ready = ::poll(
        &pfd, 1, static_cast<int>((wait + kMillisecond - 1) / kMillisecond));
#endif
    poll_calls_->inc();
    idle_us_->inc(static_cast<std::uint64_t>(now() - blocked_at));
    if (ready > 0 && (pfd.revents & POLLIN) != 0) drain_socket();
  }
  flush_sends();  // the loop is exiting: don't strand queued frames
}

void UdpNode::deliver_frame(const std::byte* data, std::size_t len) {
  if (len < kHeaderSize) return;  // truncated header: garbage datagram
  std::uint32_t src = 0;
  std::uint16_t type = 0;
  std::memcpy(&src, data, sizeof(src));
  std::memcpy(&type, data + sizeof(src), sizeof(type));
  if (src >= static_cast<std::uint32_t>(config_.n)) return;
  datagrams_received_->inc();
  // Debug borrow scope: blob fields decoded out of this receive slab die
  // when the delivery returns — the slab is overwritten by the next drain.
  borrowcheck::Scope borrow_scope;
  try {
    actor_->on_message(*this, static_cast<ProcessId>(src), type,
                       BytesView(data + kHeaderSize, len - kHeaderSize));
  } catch (const SerializationError&) {
    // A body that does not decode is garbage from the network (a truncated
    // or forged datagram): drop it like a lost message.
    frames_rejected_->inc();
  }
}

void UdpNode::drain_socket() {
#if defined(__linux__)
  for (;;) {
    mmsghdr msgs[kRecvBatch];
    iovec iov[kRecvBatch];
    std::memset(msgs, 0, sizeof(msgs));
    for (std::size_t i = 0; i < kRecvBatch; ++i) {
      iov[i].iov_base = recv_bufs_[i].data();
      iov[i].iov_len = recv_bufs_[i].size();
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    int got = ::recvmmsg(fd_, msgs, kRecvBatch, MSG_DONTWAIT, nullptr);
    if (got <= 0) return;
    recvmmsg_calls_->inc();
    for (int i = 0; i < got; ++i) {
      deliver_frame(recv_bufs_[static_cast<std::size_t>(i)].data(),
                    msgs[i].msg_len);
    }
    if (got < static_cast<int>(kRecvBatch)) return;  // socket drained
  }
#else
  Bytes& buf = recv_bufs_.front();
  for (;;) {
    ssize_t got = ::recvfrom(fd_, buf.data(), buf.size(), MSG_DONTWAIT,
                             nullptr, nullptr);
    if (got < 0) return;  // drained
    deliver_frame(buf.data(), static_cast<std::size_t>(got));
  }
#endif
}

}  // namespace lls
