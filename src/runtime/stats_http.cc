#include "runtime/stats_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace lls {

namespace {

const char* content_type_for(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    return "application/json";
  }
  return "text/plain; version=0.0.4";  // the Prometheus exposition version
}

/// False once the client has gone away. MSG_NOSIGNAL: a client that resets
/// the connection mid-response must not raise SIGPIPE, which would
/// terminate every node in the process.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t put =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (put <= 0) return false;  // nothing to salvage
    off += static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace

StatsHttpServer::StatsHttpServer(std::uint16_t port, Handler handler)
    : port_(port), handler_(std::move(handler)) {}

StatsHttpServer::~StatsHttpServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void StatsHttpServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("stats socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("stats bind() failed on port " +
                             std::to_string(port_));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 4) != 0) {
    throw std::runtime_error("stats listen() failed");
  }
  running_.store(true);
  thread_ = std::thread([this]() { run(); });
}

void StatsHttpServer::stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

void StatsHttpServer::run() {
  while (running_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    serve_one(client);
    ::close(client);
  }
}

void StatsHttpServer::serve_one(int client_fd) {
  // Read one request head. Scrapes are a single short GET; anything that
  // does not fit the buffer or parse as "GET <path> ..." gets a 400.
  char buf[2048];
  ssize_t got = ::recv(client_fd, buf, sizeof(buf) - 1, 0);
  if (got <= 0) return;
  buf[got] = '\0';
  std::string path;
  if (std::strncmp(buf, "GET ", 4) == 0) {
    const char* begin = buf + 4;
    const char* end = std::strchr(begin, ' ');
    if (end != nullptr) path.assign(begin, end);
  }
  if (path.empty()) {
    write_all(client_fd, "HTTP/1.0 400 Bad Request\r\n\r\n");
    return;
  }
  const std::string body = handler_ ? handler_(path) : std::string();
  if (body.empty()) {
    write_all(client_fd, "HTTP/1.0 404 Not Found\r\n\r\n");
    return;
  }
  std::string head = "HTTP/1.0 200 OK\r\nContent-Type: ";
  head += content_type_for(path);
  head += "\r\nContent-Length: " + std::to_string(body.size()) +
          "\r\nConnection: close\r\n\r\n";
  if (write_all(client_fd, head)) write_all(client_fd, body);
}

}  // namespace lls
