// The one record frame of every dwv binary file (DESIGN.md §15).
//
//   file   = header record*
//   record = len:u64 checksum64(payload):u64 payload        (16 + len bytes)
//
// The header belongs to the caller: its bytes, and what a mismatch means
// (the flowpipe cache goes cold, an X_I checkpoint refuses the file). The
// checksum covers the payload, so a torn append or a flipped byte
// invalidates exactly that record, and a scan stops there: offsets after
// a bad frame cannot be trusted. Three file shapes use the frame:
//
//  - AppendLog: append-only logs (cache shard logs, search checkpoints).
//    Opening scans the intact records and truncates any torn tail;
//    appending writes one framed record.
//  - read_file / write_file: whole files; write_file publishes through a
//    temporary file and rename, so a failed write keeps the old file.
//  - framed files: one record behind magic:u64 version:u32 reserved:u32
//    (shard and search result files).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "reach/serialize.hpp"

namespace dwv::reach::ser {

constexpr std::size_t kFrameSize = 16;  ///< len:u64 + checksum:u64

/// Receives one intact record of a scan: its payload and the file offset
/// of its frame. Returning false stops the scan before this record, as a
/// failed checksum would.
using RecordVisitor = std::function<bool(
    const std::uint8_t* payload, std::size_t len, std::uint64_t frame_off)>;

/// Walks the records of data[begin, size) and passes each intact one to
/// `visit`. Returns the offset one past the last accepted record.
std::uint64_t scan_records(const std::uint8_t* data, std::uint64_t size,
                           std::uint64_t begin, const RecordVisitor& visit);

/// An append-only record log on disk.
class AppendLog {
 public:
  /// Judges the header of an existing, non-empty file (`data` is the whole
  /// file, possibly shorter than a header): true keeps and scans the file,
  /// false resets it to a fresh header. May throw to refuse the file.
  using HeaderCheck =
      std::function<bool(const std::uint8_t* data, std::size_t size)>;

  /// Opens or creates `path` (O_APPEND, close-on-exec). A new or reset
  /// file gets `header`; an accepted one is scanned after its header with
  /// `visit`, truncated to its intact prefix, and that prefix stays mapped
  /// for read(). Throws std::runtime_error on I/O failure.
  AppendLog(std::string path, const Bytes& header, const HeaderCheck& accept,
            const RecordVisitor& visit);
  ~AppendLog();
  AppendLog(AppendLog&& o) noexcept;
  AppendLog& operator=(AppendLog&&) = delete;

  /// Appends one framed record at the end of the file in one write
  /// (continued after a partial one) and returns the file offset of its
  /// payload. An exclusive flock is held from reading the file size to the
  /// end of the write, so other openers of the same file append around
  /// it. On failure the file is cut back to that size before this throws,
  /// so later appends stay reachable. Not thread-safe.
  std::uint64_t append(const Bytes& payload);

  /// The `len` payload bytes at `off`: a view into the open-time map, or
  /// read into `buf` for records appended since; nullptr on a short read.
  /// Safe to call concurrently with append().
  const std::uint8_t* read(std::uint64_t off, std::uint64_t len,
                           Bytes& buf) const;

  /// Releases the open-time map; read() then always reads the file.
  void unmap();

 private:
  void release();

  std::string path_;
  int fd_ = -1;
  std::uint8_t* map_ = nullptr;
  std::size_t map_size_ = 0;   ///< bytes mapped at open
  std::size_t map_valid_ = 0;  ///< intact prefix of the map
};

/// The whole content of `path`. Throws std::runtime_error when the file
/// cannot be opened or read.
Bytes read_file(const std::string& path);

/// Replaces `path` with `data`: writes `path`.tmp, then renames it over
/// `path`. On failure the temporary file is removed, `path` is untouched,
/// and this throws std::runtime_error.
void write_file(const std::string& path, const Bytes& data);

/// Writes a one-record file: magic, version, a zero reserved word, then
/// `payload` framed (published by write_file).
void write_framed_file(const std::string& path, std::uint64_t magic,
                       std::uint32_t version, const Bytes& payload);

/// The payload of a one-record file. Throws std::runtime_error when the
/// file is truncated, has another magic or version, or its record is not
/// intact and alone.
Bytes read_framed_file(const std::string& path, std::uint64_t magic,
                       std::uint32_t version);

}  // namespace dwv::reach::ser
