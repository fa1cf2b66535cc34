#include "storage/durable_io.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>

namespace idebench::storage {

uint64_t Fnv1a(const uint8_t* data, uint64_t n) {
  uint64_t h = 14695981039346656037ULL;
  for (uint64_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void PutBytes(std::string* buf, const void* p, size_t n) {
  buf->append(static_cast<const char*>(p), n);
}

void PutString(std::string* buf, const std::string& s) {
  PutU32(buf, static_cast<uint32_t>(s.size()));
  PutBytes(buf, s.data(), s.size());
}

const uint8_t* ByteReader::Skip(uint64_t n) {
  if (!ok_ || size_ - off_ < n) {
    ok_ = false;
    return nullptr;
  }
  const uint8_t* p = data_ + off_;
  off_ += n;
  return p;
}

bool ByteReader::Fits(uint64_t count, uint64_t min_bytes) {
  if (ok_ && count <= (size_ - off_) / min_bytes) return true;
  ok_ = false;
  return false;
}

std::string ByteReader::Str() {
  const uint32_t n = U32();
  const uint8_t* p = Skip(n);
  if (!ok_) return std::string();
  return std::string(reinterpret_cast<const char*>(p), n);
}

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::IOError(std::string(op) + " '" + path +
                         "': " + std::strerror(errno));
}

Status WriteHalves(int fd, uint64_t offset, const std::string& bytes,
                   const std::string& path, WriteWords words,
                   std::optional<chaos::FaultSite> site,
                   const std::function<Status()>& on_fire, size_t* written) {
  const size_t n = bytes.size();
  const size_t half = n / 2;
  size_t& done = *written;
  done = 0;
  while (done < n) {
    if (done == half && site.has_value() &&
        chaos::FaultInjector::Fire(*site)) {
      return on_fire();
    }
    // Cap each syscall at the half boundary so the chaos draw above sits
    // at a deterministic byte offset regardless of kernel write sizes.
    const size_t want = done < half ? half - done : n - done;
    const ssize_t rc = ::pwrite(fd, bytes.data() + done, want,
                                static_cast<off_t>(offset + done));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(words.write_failed, path);
    }
    if (rc == 0) {
      return Status::IOError(std::string(words.wrote_nothing) + " '" + path +
                             "'");
    }
    done += static_cast<size_t>(rc);
  }
  return Status::OK();
}

Status FsyncDirectory(const std::string& dir) {
  const std::string target = dir.empty() ? "." : dir;
  const int fd = ::open(target.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open directory", target);
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved;
    return ErrnoStatus("fsync directory", target);
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const std::string& data) {
  // Per-process temp name: concurrent writers of the same destination
  // (e.g. test shards sharing a cache path) must not race on one temp
  // file — each renames its own, and the last rename wins atomically.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);

  // A fire (or a kill-on-fire crash) leaves a genuinely torn temp, which
  // is exactly the state the rename protocol must keep unobservable at
  // the destination path.
  size_t written = 0;
  Status st = WriteHalves(
      fd, 0, data, tmp, {"write to", "short write to"},
      chaos::FaultSite::kSegmentWrite,
      [&] {
        errno = ENOSPC;
        return ErrnoStatus("injected mid-write fault on", tmp);
      },
      &written);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoStatus("fsync", tmp);
  if (::close(fd) != 0 && st.ok()) st = ErrnoStatus("close", tmp);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    st = ErrnoStatus("rename to", path);
    ::unlink(tmp.c_str());
    return st;
  }
  // The rename is not durable until the directory entry is.
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  return FsyncDirectory(parent);
}

}  // namespace idebench::storage
