#include "reach/append_log.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dwv::reach::ser {

namespace {

constexpr std::size_t kFramedHeaderSize = 8 + 4 + 4;  // magic version reserved

[[noreturn]] void throw_io(const char* what, const std::string& path,
                           int err = errno) {
  throw std::runtime_error(std::string(what) + " failed for '" + path +
                           "': " + std::strerror(err));
}

/// Writes all `n` bytes, continuing after partial writes. False (errno
/// set) on failure.
bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      if (w == 0) errno = EIO;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void put_record(Bytes& out, const Bytes& payload) {
  Writer frame;
  frame.u64(payload.size());
  frame.u64(checksum64(payload.data(), payload.size()));
  out.insert(out.end(), frame.bytes().begin(), frame.bytes().end());
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace

std::uint64_t scan_records(const std::uint8_t* data, std::uint64_t size,
                           std::uint64_t begin, const RecordVisitor& visit) {
  std::uint64_t pos = begin;
  while (pos <= size && size - pos >= kFrameSize) {
    Reader fr(data + pos, kFrameSize);
    const std::uint64_t len = fr.u64();
    const std::uint64_t sum = fr.u64();
    if (len > size - pos - kFrameSize) break;  // truncated / corrupt length
    const std::uint8_t* payload = data + pos + kFrameSize;
    const auto n = static_cast<std::size_t>(len);
    if (checksum64(payload, n) != sum || !visit(payload, n, pos)) break;
    pos += kFrameSize + len;
  }
  return pos;
}

AppendLog::AppendLog(std::string path, const Bytes& header,
                     const HeaderCheck& accept, const RecordVisitor& visit)
    : path_(std::move(path)) {
  try {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0) throw_io("open", path_);
    struct ::stat st{};
    if (::fstat(fd_, &st) != 0) throw_io("stat", path_);
    const auto file_size = static_cast<std::uint64_t>(st.st_size);
    std::uint64_t valid_end = 0;
    if (file_size > 0) {
      // Map the whole file once for the scan; the map of the intact
      // prefix serves read() (records are immutable once written, so it
      // never goes stale).
      void* m = ::mmap(nullptr, static_cast<std::size_t>(file_size),
                       PROT_READ, MAP_PRIVATE, fd_, 0);
      if (m == MAP_FAILED) throw_io("mmap", path_);
      map_ = static_cast<std::uint8_t*>(m);
      map_size_ = static_cast<std::size_t>(file_size);
      if (accept(map_, map_size_) && file_size >= header.size()) {
        valid_end = scan_records(map_, file_size, header.size(), visit);
      } else {
        unmap();
      }
    }
    if (valid_end == 0) {
      if (::ftruncate(fd_, 0) != 0) throw_io("truncate", path_);
      if (!write_all(fd_, header.data(), header.size())) {
        throw_io("write", path_);
      }
      valid_end = header.size();
    } else if (valid_end < file_size) {
      // Torn tail from a crashed append: drop it so new appends land at a
      // record boundary and stay reachable by the next scan.
      if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
        throw_io("truncate", path_);
      }
    }
    map_valid_ = std::min<std::size_t>(map_size_,
                                       static_cast<std::size_t>(valid_end));
  } catch (...) {
    release();
    throw;
  }
}

AppendLog::~AppendLog() { release(); }

AppendLog::AppendLog(AppendLog&& o) noexcept
    : path_(std::move(o.path_)),
      fd_(std::exchange(o.fd_, -1)),
      map_(std::exchange(o.map_, nullptr)),
      map_size_(std::exchange(o.map_size_, 0)),
      map_valid_(std::exchange(o.map_valid_, 0)) {}

void AppendLog::unmap() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
  map_ = nullptr;
  map_size_ = 0;
  map_valid_ = 0;
}

void AppendLog::release() {
  unmap();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::uint64_t AppendLog::append(const Bytes& payload) {
  Bytes rec;
  rec.reserve(kFrameSize + payload.size());
  put_record(rec, payload);
  // Another opener of the same file may have appended since this one
  // opened it. The exclusive lock serializes appenders across openers,
  // and the size read under it is where this record lands.
  while (::flock(fd_, LOCK_EX) != 0) {
    if (errno != EINTR) throw_io("lock", path_);
  }
  struct ::stat st{};
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    ::flock(fd_, LOCK_UN);
    throw_io("stat", path_, err);
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  // One O_APPEND write per record (continued only after a partial
  // write): a crash can only tear the LAST record, which the next open's
  // scan drops.
  if (!write_all(fd_, rec.data(), rec.size())) {
    const int err = errno;
    // Cut a partial frame away now: records appended after it would be
    // unreachable behind it.
    const bool cut = ::ftruncate(fd_, static_cast<off_t>(size)) == 0;
    ::flock(fd_, LOCK_UN);
    if (!cut) throw_io("truncate", path_);
    throw_io("write", path_, err);
  }
  ::flock(fd_, LOCK_UN);
  return size + kFrameSize;
}

const std::uint8_t* AppendLog::read(std::uint64_t off, std::uint64_t len,
                                    Bytes& buf) const {
  if (off + len <= map_valid_) return map_ + off;
  buf.resize(static_cast<std::size_t>(len));
  const ssize_t got =
      ::pread(fd_, buf.data(), buf.size(), static_cast<off_t>(off));
  return got == static_cast<ssize_t>(buf.size()) ? buf.data() : nullptr;
}

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rbe");
  if (f == nullptr) throw_io("open", path);
  Bytes data;
  std::uint8_t buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    data.insert(data.end(), buf, buf + got);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw_io("read", path);
  return data;
}

void write_file(const std::string& path, const Bytes& data) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_io("open", tmp);
  bool ok = write_all(fd, data.data(), data.size());
  ok = ::close(fd) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw_io("write", path, err);
  }
}

void write_framed_file(const std::string& path, std::uint64_t magic,
                       std::uint32_t version, const Bytes& payload) {
  Writer w;
  w.u64(magic);
  w.u32(version);
  w.u32(0);  // reserved
  Bytes out = w.take();
  put_record(out, payload);
  write_file(path, out);
}

Bytes read_framed_file(const std::string& path, std::uint64_t magic,
                       std::uint32_t version) {
  const Bytes data = read_file(path);
  if (data.size() < kFramedHeaderSize + kFrameSize) {
    throw std::runtime_error(path + ": truncated dwv result file");
  }
  Reader h(data.data(), kFramedHeaderSize);
  if (h.u64() != magic || h.u32() != version) {
    throw std::runtime_error(path + ": not the expected dwv result format");
  }
  // Exactly one intact record, ending at the end of the file.
  std::size_t records = 0;
  const auto first_only = [&records](const std::uint8_t*, std::size_t,
                                     std::uint64_t) { return ++records == 1; };
  if (scan_records(data.data(), data.size(), kFramedHeaderSize, first_only) !=
      data.size()) {
    throw std::runtime_error(path + ": corrupt dwv result file");
  }
  return Bytes(data.begin() + kFramedHeaderSize + kFrameSize, data.end());
}

}  // namespace dwv::reach::ser
