// Versioned binary blob format -- the substrate of plan persistence.
//
// A blob is:   [magic "MSPB"] [u16 format version] [u8 endian tag]
//              [u8 reserved] [payload ...] [u32 CRC-32 of payload]
//
// Design constraints, in order:
//  * a truncated, bit-flipped, or wrong-version file must be DETECTED, not
//    crash or silently misload -- BlobReader verifies the header and the
//    CRC trailer up front and every read is bounds-checked;
//  * reads never throw: a reader is a fail-stop stream (first violation
//    latches an error message, subsequent reads return zero values), so
//    deserializers are written straight-line and check ok() once at the
//    end;
//  * blobs are tagged with the writer's endianness and rejected on
//    mismatch rather than byte-swapped -- every HPC target this library
//    cares about is little-endian, and a clean error beats silently slow
//    swapping paths that never get tested.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace msptrsv::support {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected) of a byte range.
/// Three implementations of the same function, picked at run time from
/// what the host has, so blobs verify across machines: carry-less folding
/// with 512-bit VPCLMULQDQ for spans of 512 bytes or more (AVX-512F,
/// VPCLMULQDQ, PCLMUL and SSE4.2 hosts), the SSE4.2 crc32 instruction
/// (three independent chains over adjacent blocks, merged by
/// shift-by-length tables), and a slice-by-8 table fallback. Chosen over
/// classic CRC-32 because plan loads checksum the whole multi-megabyte
/// blob on the cold path, and every wire frame is checksummed by both of
/// its ends.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// The implementation crc32() takes on this host for spans of 512 bytes
/// or more: "vpclmulqdq-fold", "sse4.2-crc32" or "slice-by-8".
const char* crc32_implementation();

namespace detail {
/// The slice-by-8 fallback of crc32(), callable on any host so tests can
/// hold it against the paths crc32() takes on the host at hand.
std::uint32_t crc32_portable(std::span<const std::uint8_t> bytes);
}  // namespace detail

/// 1 on little-endian hosts, 2 on big-endian (the on-disk tag values).
std::uint8_t host_endian_tag();

/// Fixed framing overhead of every blob image: the 8-byte header plus the
/// 4-byte CRC trailer. Consumers that size or sanity-check whole blob
/// images (the wire protocol's length-prefixed frames ride this format)
/// use these instead of re-deriving the layout.
inline constexpr std::size_t kBlobHeaderBytes = 8;
inline constexpr std::size_t kBlobTrailerBytes = 4;
inline constexpr std::size_t kBlobMinBytes =
    kBlobHeaderBytes + kBlobTrailerBytes;

/// Writes the blob header for `format_version` -- magic, version, this
/// host's endian tag, reserved byte -- at `out` (kBlobHeaderBytes). For
/// writers that lay a blob out in their own buffer; BlobWriter uses it.
void write_blob_header(std::uint8_t* out, std::uint16_t format_version);

/// An allocator whose value construction is default-initialization, so
/// resize() on a vector of bytes leaves the new bytes unwritten -- for
/// buffers a recv or an in-place writer overwrites anyway.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  /// Value construction; construction from arguments keeps the default
  /// (std::allocator_traits falls back to std::construct_at).
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

class BlobWriter {
 public:
  /// `format_version` is stamped into the header; readers reject blobs
  /// whose version they do not understand. The buffer is allocated once,
  /// with room for `payload_capacity` payload bytes plus the header and
  /// the CRC trailer (writing more just grows it). `prefix_bytes` zero
  /// bytes go in front of the image for an enclosing format to fill in
  /// after finish() (the wire protocol's length prefix); offsets, 8-byte
  /// padding and the CRC are all measured from the blob start, so the
  /// image behind the prefix is byte-identical to an unprefixed one.
  explicit BlobWriter(std::uint16_t format_version,
                      std::size_t payload_capacity = 256,
                      std::size_t prefix_bytes = 0);

  void write_u8(std::uint8_t v);
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);
  /// Length-prefixed (u64) byte string.
  void write_string(std::string_view s);

  /// Length-prefixed (u64 element count) array of trivially copyable
  /// elements, written as raw bytes. The count field is padded to an
  /// 8-byte blob offset so the payload lands 8-aligned -- which lets
  /// read_vector build the vector with one aligned bulk copy instead of a
  /// zero-fill pass plus a memcpy.
  template <typename T>
  void write_span(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    align8();
    write_u64(static_cast<std::uint64_t>(v.size()));
    append(v.data(), v.size() * sizeof(T));
  }

  /// Bytes written so far (payload only, header excluded).
  std::size_t payload_size() const {
    return buf_.size() - prefix_ - kBlobHeaderBytes;
  }

  /// Seals the blob: appends the CRC trailer and returns the full byte
  /// image, behind the `prefix_bytes` the writer was made with. The writer
  /// is spent afterwards.
  std::vector<std::uint8_t> finish() &&;

 private:
  void append(const void* data, std::size_t bytes);
  /// Zero-pads the buffer to the next 8-byte blob offset.
  void align8() {
    while ((buf_.size() - prefix_) % 8 != 0) buf_.push_back(0);
  }

  std::size_t prefix_ = 0;
  std::vector<std::uint8_t> buf_;
};

class BlobReader {
 public:
  /// Wraps (does not copy) `bytes` and verifies magic, endianness,
  /// version, and the CRC trailer. On any violation the reader starts in
  /// the failed state with a diagnostic in error().
  BlobReader(std::span<const std::uint8_t> bytes,
             std::uint16_t expected_version);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  /// Latches a failure from a higher layer (e.g. a deserializer that read
  /// structurally impossible values). First failure wins.
  void fail(std::string message);

  /// Format version stamped in the header (valid even when the version
  /// check failed, for error reporting).
  std::uint16_t version() const { return version_; }

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  std::int64_t read_i64();
  double read_f64();
  std::string read_string();

  /// Reads a write_span-encoded array. The element count is validated
  /// against the remaining payload BEFORE allocating, so a corrupt length
  /// cannot trigger a huge allocation. When the payload pointer is
  /// T-aligned (the writer's 8-byte padding guarantees it for whole-file
  /// blobs) the vector is built with one bulk copy -- the plan-load hot
  /// path; otherwise it falls back to zero-fill + memcpy.
  template <typename T>
  std::vector<T> read_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = array_count(sizeof(T));
    if (!ok()) return {};
    const std::uint8_t* p = bytes_.data() + pos_;
    if (reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0) {
      const T* first = reinterpret_cast<const T*>(p);
      std::vector<T> out(first, first + count);
      pos_ += static_cast<std::size_t>(count) * sizeof(T);
      return out;
    }
    std::vector<T> out(static_cast<std::size_t>(count));
    extract(out.data(), out.size() * sizeof(T));
    return out;
  }

  /// Consumes a write_span-encoded array WITHOUT materializing it (same
  /// bounds checks as read_vector). Returns the element count skipped.
  /// Used by loads that do not need a section's data -- e.g. a borrowed
  /// plan load, where the caller already holds the factor.
  template <typename T>
  std::uint64_t skip_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = array_count(sizeof(T));
    if (!ok()) return 0;
    pos_ += static_cast<std::size_t>(count) * sizeof(T);
    return count;
  }

  /// Reads a write_span-encoded array IN PLACE: the span views the bytes
  /// the reader wraps, which must outlive it. Same bounds checks as
  /// read_vector; the reader fails instead when the elements are not
  /// T-aligned in memory (the writer's padding makes them so in any blob
  /// that starts at an 8-aligned address, as net::read_frame's do).
  template <typename T>
  std::span<const T> read_view() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = array_count(sizeof(T));
    if (!ok()) return {};
    const std::uint8_t* p = bytes_.data() + pos_;
    if (reinterpret_cast<std::uintptr_t>(p) % alignof(T) != 0) {
      fail("array of " + std::to_string(sizeof(T)) +
           "B elements is not aligned in memory for an in-place read");
      return {};
    }
    pos_ += static_cast<std::size_t>(count) * sizeof(T);
    return {reinterpret_cast<const T*>(p), static_cast<std::size_t>(count)};
  }

  /// Payload bytes not yet consumed.
  std::size_t remaining() const { return end_ - pos_; }
  bool at_end() const { return ok() && remaining() == 0; }

 private:
  void extract(void* out, std::size_t bytes);
  /// Consumes a write_span array's padding and u64 element count, and
  /// fails the reader when that many `elem_bytes` elements overrun the
  /// payload left.
  std::uint64_t array_count(std::size_t elem_bytes);
  /// Consumes the writer's padding up to the next 8-byte blob offset.
  void align8() {
    const std::size_t aligned = (pos_ + 7) & ~std::size_t{7};
    pos_ = aligned <= end_ ? aligned : end_;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;  ///< next unread payload byte
  std::size_t end_ = 0;  ///< one past the last payload byte (CRC excluded)
  std::uint16_t version_ = 0;
  std::string error_;
};

/// Writes `bytes` to `path` atomically (write to a same-directory temp
/// file, then rename): readers and racing writers only ever observe
/// complete blobs. Returns false (with errno intact) on any I/O failure.
bool write_file(const std::string& path, std::span<const std::uint8_t> bytes);

/// Reads a whole file. Returns false on any I/O failure; `out` is cleared
/// first either way.
bool read_file(const std::string& path, std::vector<std::uint8_t>& out);

}  // namespace msptrsv::support
