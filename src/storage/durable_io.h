#ifndef IDEBENCH_STORAGE_DURABLE_IO_H_
#define IDEBENCH_STORAGE_DURABLE_IO_H_

/// \file durable_io.h
/// The byte-level primitives shared by the segment files and the WAL.
///
/// Both are same-host cache formats in native byte order (little-endian
/// on every supported host); each leads with a magic that doubles as an
/// endianness check.  What the two formats have in common lives here once:
///
///  * `Fnv1a` — the 64-bit checksum of a segment file and of every WAL
///    record;
///  * `PutU8` ... `PutString` — fixed-width fields and u32-length-prefixed
///    strings appended to a byte buffer;
///  * `ByteReader` — the bounds-checked reader both parsers take every
///    untrusted field through;
///  * `WriteHalves` — the one write loop.  It runs on raw fds so short
///    writes and ENOSPC are visible (iostream swallows both into a sticky
///    failbit with no errno), and it splits each write at its midpoint,
///    where the chaos draw sits, so a crash there leaves a real torn file;
///  * `WriteFileAtomic` — write-temp-then-rename with fsync of the file
///    *and* its directory.  After it returns OK the destination durably
///    holds exactly the new bytes; after a crash at any point the
///    destination holds either the complete old content or the complete
///    new content, never a torn mix.  Failed attempts unlink their temp;
///  * `FsyncDirectory` — flushes directory metadata (a rename or create
///    is not durable until its directory entry is).

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>

#include "chaos/fault_injector.h"
#include "common/status.h"

namespace idebench::storage {

/// 64-bit FNV-1a over [data, data + n).
uint64_t Fnv1a(const uint8_t* data, uint64_t n);

// --- Appends to a byte buffer, in native byte order --------------------

void PutBytes(std::string* buf, const void* p, size_t n);
inline void PutU8(std::string* buf, uint8_t v) { PutBytes(buf, &v, 1); }
inline void PutU32(std::string* buf, uint32_t v) { PutBytes(buf, &v, 4); }
inline void PutU64(std::string* buf, uint64_t v) { PutBytes(buf, &v, 8); }
inline void PutI64(std::string* buf, int64_t v) { PutBytes(buf, &v, 8); }
inline void PutF64(std::string* buf, double v) { PutBytes(buf, &v, 8); }
/// A u32 length, then the bytes.
void PutString(std::string* buf, const std::string& s);

/// Sequential reader over [data, data + size).  A read past the end
/// returns zero (or an empty string), clears `ok()` for good and turns
/// every later read into a no-op, so a parser checks `ok()` once after a
/// run of reads.  Fields are unaligned by design; each is copied out.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, uint64_t size) : data_(data), size_(size) {}

  uint8_t U8() { return Take<uint8_t>(); }
  uint32_t U32() { return Take<uint32_t>(); }
  uint64_t U64() { return Take<uint64_t>(); }
  int64_t I64() { return Take<int64_t>(); }
  double F64() { return Take<double>(); }
  /// A u32 length, then that many bytes.
  std::string Str();
  /// Steps over `n` bytes and returns where they start (nullptr past the
  /// end).
  const uint8_t* Skip(uint64_t n);
  /// Accepts a decoded count of `count` items, each encoded in at least
  /// `min_bytes` (> 0), only if they fit in the bytes left; otherwise
  /// clears `ok()` and returns false.  A parser asks before it reserves
  /// room for the items, so no field sizes an allocation past the input.
  bool Fits(uint64_t count, uint64_t min_bytes);

  bool ok() const { return ok_; }
  bool AtEnd() const { return off_ == size_; }

 private:
  template <typename T>
  T Take() {
    T v{};
    const uint8_t* p = Skip(sizeof(T));
    if (p != nullptr) std::memcpy(&v, p, sizeof(T));
    return v;
  }

  const uint8_t* data_;
  uint64_t size_;
  uint64_t off_ = 0;
  bool ok_ = true;
};

/// IOError "<op> '<path>': <strerror(errno)>".
Status ErrnoStatus(const char* op, const std::string& path);

/// How `WriteHalves` words a failed syscall, so each file format keeps
/// its own messages: "<write_failed> '<path>': <strerror>" and, for a
/// write of zero bytes, "<wrote_nothing> '<path>'".
struct WriteWords {
  const char* write_failed;
  const char* wrote_nothing;
};

/// Writes all of `bytes` to `fd` from file offset `offset`, retrying short
/// writes and EINTR; `*written` counts the bytes that reached the file.
/// No syscall crosses byte size / 2.  When `site` is set, its chaos draw
/// sits at that byte, and a fire stops the write there and returns
/// `on_fire()`: a fire, or a kill on fire, leaves exactly the first half
/// on disk, at an offset no kernel write size can move.
Status WriteHalves(int fd, uint64_t offset, const std::string& bytes,
                   const std::string& path, WriteWords words,
                   std::optional<chaos::FaultSite> site,
                   const std::function<Status()>& on_fire, size_t* written);

/// Atomically replaces `path` with `data`: writes `path + ".tmp.<pid>"`,
/// fsyncs it, renames it over `path`, and fsyncs the parent directory.
/// Any failure (open, short write, ENOSPC, fsync, rename) surfaces as an
/// IOError and leaves `path` untouched with the temp unlinked.  Chaos
/// site `segment.write` fires mid-write, after half the payload.
Status WriteFileAtomic(const std::string& path, const std::string& data);

/// Fsyncs the directory at `dir`, making renames/creates inside it
/// durable.  An empty `dir` (relative path with no parent) fsyncs ".".
Status FsyncDirectory(const std::string& dir);

}  // namespace idebench::storage

#endif  // IDEBENCH_STORAGE_DURABLE_IO_H_
