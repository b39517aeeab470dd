#include "support/blob.hpp"

#include <unistd.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <iterator>

#include "support/failpoint.hpp"

namespace msptrsv::support {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic{'M', 'S', 'P', 'B'};

constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;  // reflected 0x1EDC6F41

/// Slice-by-8 tables for the software CRC-32C path: table[0] is the
/// classic byte table; table[k] rolls the remainder k extra bytes
/// forward, letting the hot loop fold 8 input bytes per iteration.
std::array<std::array<std::uint32_t, 256>, 8> build_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? kCrc32cPoly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (int k = 1; k < 8; ++k) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[k][i] = c;
    }
  }
  return t;
}

std::uint32_t crc32c_sw(std::span<const std::uint8_t> bytes,
                        std::uint32_t c) {
  static const std::array<std::array<std::uint32_t, 256>, 8> t =
      build_crc_tables();
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    c ^= lo;
    c = t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^
        t[4][c >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__) || defined(__i386__)
#define MSPTRSV_HAS_HW_CRC 1

/// a * b mod P over GF(2), in the reflected bit order of the CRC register
/// (bit 31 holds the x^0 coefficient).
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kCrc32cPoly : b >> 1;
  }
  return product;
}

/// x^n mod P, in multmodp's register convention.
std::uint32_t xpow_mod_p(std::uint64_t n) {
  std::uint32_t power = 1u << 31;   // x^0
  std::uint32_t square = 1u << 30;  // x^1
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) power = multmodp(square, power);
    square = multmodp(square, square);
  }
  return power;
}

/// Moves a CRC register past `len` zero bytes: multiplies it by
/// x^(8*len) mod P, one byte of the register per table. This is what
/// merges chains: the register over A then B equals shift(reg over A)
/// xor (reg over B started from zero), when the shift is by |B|.
class CrcShift {
 public:
  explicit CrcShift(std::size_t len) {
    const std::uint32_t op = xpow_mod_p(8 * len);
    for (std::uint32_t k = 0; k < 4; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t_[k][i] = multmodp(op, i << (8 * k));
      }
    }
  }

  std::uint32_t operator()(std::uint32_t c) const {
    return t_[0][c & 0xFFu] ^ t_[1][(c >> 8) & 0xFFu] ^
           t_[2][(c >> 16) & 0xFFu] ^ t_[3][c >> 24];
  }

 private:
  std::array<std::array<std::uint32_t, 256>, 4> t_{};
};

/// The crc32 instruction has a latency of three cycles and a throughput of
/// one per cycle, so a single dependent chain runs at a third of the
/// instruction's rate. Three chains over adjacent blocks run at full rate;
/// 8 KiB blocks make the two merges per 24 KiB negligible, and 256-byte
/// blocks keep the tail that runs on one chain short.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

/// Runs three crc32 chains over adjacent `block`-byte runs for as long as
/// 3 * block bytes remain, merging them into `c` after each run.
__attribute__((target("sse4.2"))) std::uint64_t crc32c_3way(
    std::uint64_t c, const std::uint8_t*& p, std::size_t& n,
    std::size_t block, const CrcShift& shift) {
  while (n >= 3 * block) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < block; i += 8) {
      std::uint64_t v0, v1, v2;
      std::memcpy(&v0, p + i, 8);
      std::memcpy(&v1, p + block + i, 8);
      std::memcpy(&v2, p + 2 * block + i, 8);
      c = __builtin_ia32_crc32di(c, v0);
      c1 = __builtin_ia32_crc32di(c1, v1);
      c2 = __builtin_ia32_crc32di(c2, v2);
    }
    c = shift(static_cast<std::uint32_t>(c)) ^ c1;
    c = shift(static_cast<std::uint32_t>(c)) ^ c2;
    p += 3 * block;
    n -= 3 * block;
  }
  return c;
}

/// SSE4.2 crc32 instruction path: same CRC-32C function as the table
/// fallback, an order of magnitude faster. Guarded at runtime by cpuid so
/// one binary runs everywhere.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::span<const std::uint8_t> bytes, std::uint32_t c) {
  static const CrcShift shift_long(kLongBlock);
  static const CrcShift shift_short(kShortBlock);
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // Bytewise up to an 8-byte boundary, so no 8-byte load splits a line.
  while (n > 0 && reinterpret_cast<std::uintptr_t>(p) % 8 != 0) {
    c = __builtin_ia32_crc32qi(c, *p++);
    --n;
  }
  std::uint64_t c64 = c;
  c64 = crc32c_3way(c64, p, n, kLongBlock, shift_long);
  c64 = crc32c_3way(c64, p, n, kShortBlock, shift_short);
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    c64 = __builtin_ia32_crc32di(c64, v);
    p += 8;
    n -= 8;
  }
  c = static_cast<std::uint32_t>(c64);
  while (n-- > 0) {
    c = __builtin_ia32_crc32qi(c, *p++);
  }
  return c;
}

bool have_hw_crc() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}
#endif

#if defined(MSPTRSV_HAS_HW_CRC) && defined(__x86_64__)
#define MSPTRSV_HAS_FOLD_CRC 1
#define MSPTRSV_FOLD_TARGET \
  __attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.2")))

/// Carry-less folding, the other way to run a CRC at memory speed. A
/// 16-byte lane loaded little-endian holds, in bit j, the coefficient of
/// x^(127-j) of the polynomial its bytes are (counted from the lane's
/// end). Moving a lane d bits further from the message end multiplies it
/// by x^d; done modulo P on each 64-bit half, that is a 64 x 32-bit
/// carry-less product per half: the low half (the high-degree one) by
/// x^(d+31) mod P and the high half by x^(d-33) mod P, both in multmodp's
/// convention, where the 33 lines a product's bits up with the lane's.
/// The result is congruent to the lane moved, not reduced, which is all a
/// CRC needs until the end. Spans shorter than this keep the crc32 chains.
constexpr std::size_t kFoldMinBytes = 512;

/// One {x^(d+31), x^(d-33)} key pair per folding distance d used below.
struct FoldKeys {
  static constexpr std::size_t kDistances[] = {256, 192, 128, 64, 48, 32, 16};
  std::array<std::uint64_t, 2> by[std::size(kDistances)];
};

const FoldKeys& fold_keys() {
  static const FoldKeys keys = [] {
    FoldKeys k{};
    for (std::size_t i = 0; i < std::size(FoldKeys::kDistances); ++i) {
      const std::uint64_t bits = 8 * FoldKeys::kDistances[i];
      k.by[i] = {xpow_mod_p(bits + 31), xpow_mod_p(bits - 33)};
    }
    return k;
  }();
  return keys;
}

MSPTRSV_FOLD_TARGET inline __m128i key128(const std::array<std::uint64_t, 2>& k) {
  return _mm_set_epi64x(static_cast<long long>(k[1]),
                        static_cast<long long>(k[0]));
}

MSPTRSV_FOLD_TARGET inline __m512i key512(const std::array<std::uint64_t, 2>& k) {
  return _mm512_set4_epi64(
      static_cast<long long>(k[1]), static_cast<long long>(k[0]),
      static_cast<long long>(k[1]), static_cast<long long>(k[0]));
}

/// acc moved forward by the key's distance, xor data (every 128-bit lane).
MSPTRSV_FOLD_TARGET inline __m512i fold512(__m512i acc, __m512i key,
                                           __m512i data) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, key, 0x00),
                                   _mm512_clmulepi64_epi128(acc, key, 0x11),
                                   data, 0x96);
}

MSPTRSV_FOLD_TARGET inline __m128i fold128(__m128i acc, __m128i key,
                                           __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, key, 0x00),
                                     _mm_clmulepi64_si128(acc, key, 0x11)),
                       data);
}

/// Four 512-bit accumulators fold 256-byte strides; at the end they fold
/// into one 16-byte lane, whose residue two crc32 instructions take from a
/// zero register. What is left after the last whole stride goes through
/// crc32c_hw. `bytes` must hold at least 256 bytes.
MSPTRSV_FOLD_TARGET std::uint32_t crc32c_fold(
    std::span<const std::uint8_t> bytes, std::uint32_t c) {
  const FoldKeys& k = fold_keys();
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // The incoming register is the same as xoring it into the first 4 bytes.
  __m512i a0 = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(c))));
  __m512i a1 = _mm512_loadu_si512(p + 64);
  __m512i a2 = _mm512_loadu_si512(p + 128);
  __m512i a3 = _mm512_loadu_si512(p + 192);
  p += 256;
  n -= 256;
  const __m512i stride = key512(k.by[0]);
  for (; n >= 256; p += 256, n -= 256) {
    a0 = fold512(a0, stride, _mm512_loadu_si512(p));
    a1 = fold512(a1, stride, _mm512_loadu_si512(p + 64));
    a2 = fold512(a2, stride, _mm512_loadu_si512(p + 128));
    a3 = fold512(a3, stride, _mm512_loadu_si512(p + 192));
  }
  // a0..a2 sit 192, 128 and 64 bytes behind a3; then a3's four lanes sit
  // 48, 32, 16 and 0 bytes behind the stride's end.
  // (Lanes go through memory: GCC 12's lane broadcast and extract
  // intrinsics trip -Wuninitialized.)
  alignas(64) std::uint8_t lanes[64];
  _mm512_store_si512(
      lanes, fold512(a0, key512(k.by[1]),
                     fold512(a1, key512(k.by[2]),
                             fold512(a2, key512(k.by[3]), a3))));
  const auto lane_at = [&lanes](int i) {
    __m128i v;
    std::memcpy(&v, lanes + 16 * i, 16);
    return v;
  };
  const __m128i lane = fold128(
      lane_at(0), key128(k.by[4]),
      fold128(lane_at(1), key128(k.by[5]),
              fold128(lane_at(2), key128(k.by[6]), lane_at(3))));
  std::uint64_t crc = _mm_crc32_u64(
      0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(lane)));
  crc = _mm_crc32_u64(
      crc, static_cast<std::uint64_t>(_mm_extract_epi64(lane, 1)));
  return crc32c_hw(std::span<const std::uint8_t>(p, n),
                   static_cast<std::uint32_t>(crc));
}

bool have_fold_crc() {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("vpclmulqdq") &&
                         __builtin_cpu_supports("pclmul") &&
                         __builtin_cpu_supports("sse4.2");
  return ok;
}
#endif

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
#ifdef MSPTRSV_HAS_FOLD_CRC
  if (bytes.size() >= kFoldMinBytes && have_fold_crc()) {
    return crc32c_fold(bytes, c) ^ 0xFFFFFFFFu;
  }
#endif
#ifdef MSPTRSV_HAS_HW_CRC
  if (have_hw_crc()) return crc32c_hw(bytes, c) ^ 0xFFFFFFFFu;
#endif
  return crc32c_sw(bytes, c) ^ 0xFFFFFFFFu;
}

const char* crc32_implementation() {
#ifdef MSPTRSV_HAS_FOLD_CRC
  if (have_fold_crc()) return "vpclmulqdq-fold";
#endif
#ifdef MSPTRSV_HAS_HW_CRC
  if (have_hw_crc()) return "sse4.2-crc32";
#endif
  return "slice-by-8";
}

std::uint32_t detail::crc32_portable(std::span<const std::uint8_t> bytes) {
  return crc32c_sw(bytes, 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

std::uint8_t host_endian_tag() {
  return std::endian::native == std::endian::little ? 1 : 2;
}

void write_blob_header(std::uint8_t* out, std::uint16_t format_version) {
  std::copy(kMagic.begin(), kMagic.end(), out);
  out[4] = static_cast<std::uint8_t>(format_version & 0xFFu);
  out[5] = static_cast<std::uint8_t>(format_version >> 8);
  out[6] = host_endian_tag();
  out[7] = 0;  // reserved
}

// ---- BlobWriter ------------------------------------------------------------

BlobWriter::BlobWriter(std::uint16_t format_version,
                       std::size_t payload_capacity, std::size_t prefix_bytes)
    : prefix_(prefix_bytes) {
  buf_.reserve(prefix_bytes + kBlobHeaderBytes + payload_capacity +
               kBlobTrailerBytes);
  buf_.resize(prefix_bytes + kBlobHeaderBytes);
  write_blob_header(buf_.data() + prefix_bytes, format_version);
}

void BlobWriter::append(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + bytes);
}

void BlobWriter::write_u8(std::uint8_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_u16(std::uint16_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_u32(std::uint32_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_u64(std::uint64_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_i32(std::int32_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_i64(std::int64_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_f64(double v) { append(&v, sizeof(v)); }

void BlobWriter::write_string(std::string_view s) {
  write_u64(s.size());
  append(s.data(), s.size());
}

std::vector<std::uint8_t> BlobWriter::finish() && {
  const std::uint32_t crc = crc32(
      std::span<const std::uint8_t>(buf_).subspan(prefix_ + kBlobHeaderBytes));
  append(&crc, sizeof(crc));
  return std::move(buf_);
}

// ---- BlobReader ------------------------------------------------------------

BlobReader::BlobReader(std::span<const std::uint8_t> bytes,
                       std::uint16_t expected_version)
    : bytes_(bytes) {
  constexpr std::size_t kHeaderSize = 8;
  constexpr std::size_t kTrailerSize = 4;
  if (MSPTRSV_FAILPOINT("blob.decode").kind == FailpointHit::Kind::kError) {
    fail("injected by failpoint blob.decode");
    return;
  }
  if (bytes_.size() < kHeaderSize + kTrailerSize) {
    fail("blob truncated: " + std::to_string(bytes_.size()) +
         " bytes is smaller than header + CRC trailer");
    return;
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes_.begin())) {
    fail("bad magic: not an msptrsv blob");
    return;
  }
  version_ = static_cast<std::uint16_t>(bytes_[4]) |
             static_cast<std::uint16_t>(bytes_[5]) << 8;
  if (bytes_[6] != host_endian_tag()) {
    fail("endianness mismatch: blob written on a different byte order");
    return;
  }
  if (version_ != expected_version) {
    fail("format version " + std::to_string(version_) +
         " is not the supported version " + std::to_string(expected_version));
    return;
  }
  pos_ = kHeaderSize;
  end_ = bytes_.size() - kTrailerSize;
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes_.data() + end_, sizeof(stored));
  const std::uint32_t actual = crc32(bytes_.subspan(kHeaderSize, end_ - kHeaderSize));
  if (stored != actual) {
    fail("CRC mismatch: blob corrupted or truncated mid-record");
  }
}

void BlobReader::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
  pos_ = end_ = 0;
}

std::uint64_t BlobReader::array_count(std::size_t elem_bytes) {
  align8();
  const std::uint64_t count = read_u64();
  if (ok() && count > remaining() / elem_bytes) {
    fail("array of " + std::to_string(count) + " x " +
         std::to_string(elem_bytes) + "B elements exceeds the " +
         std::to_string(remaining()) + " payload bytes left");
    return 0;
  }
  return count;
}

void BlobReader::extract(void* out, std::size_t bytes) {
  if (!ok()) {
    std::memset(out, 0, bytes);
    return;
  }
  if (bytes > remaining()) {
    fail("read of " + std::to_string(bytes) + " bytes overruns the payload (" +
         std::to_string(remaining()) + " left)");
    std::memset(out, 0, bytes);
    return;
  }
  std::memcpy(out, bytes_.data() + pos_, bytes);
  pos_ += bytes;
}

std::uint8_t BlobReader::read_u8() {
  std::uint8_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
std::uint16_t BlobReader::read_u16() {
  std::uint16_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
std::uint32_t BlobReader::read_u32() {
  std::uint32_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
std::uint64_t BlobReader::read_u64() {
  std::uint64_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
std::int32_t BlobReader::read_i32() {
  std::int32_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
std::int64_t BlobReader::read_i64() {
  std::int64_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
double BlobReader::read_f64() {
  double v = 0;
  extract(&v, sizeof(v));
  return v;
}

std::string BlobReader::read_string() {
  const std::uint64_t len = read_u64();
  if (!ok()) return {};
  if (len > remaining()) {
    fail("string of " + std::to_string(len) + " bytes exceeds the " +
         std::to_string(remaining()) + " payload bytes left");
    return {};
  }
  std::string out(static_cast<std::size_t>(len), '\0');
  extract(out.data(), out.size());
  return out;
}

// ---- file I/O --------------------------------------------------------------

bool write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  // (The pause action parks the caller HERE, before anything touches the
  // filesystem -- what the fsck-vs-writer race test uses to freeze a
  // writer at the seam.)
  if (const FailpointHit fp = MSPTRSV_FAILPOINT("cache.disk.write");
      fp.kind == FailpointHit::Kind::kError) {
    return false;
  } else if (fp.kind == FailpointHit::Kind::kPartial) {
    // Torn-write simulation: publish only the first `arg` bytes AT THE
    // FINAL PATH, skipping the tmp+rename discipline below -- the blob a
    // crashed pre-atomic-rename writer (or a dying disk) leaves behind,
    // which fsck must flag as CRC-corrupt.
    const std::size_t n =
        std::min(bytes.size(),
                 static_cast<std::size_t>(fp.arg > 0 ? fp.arg : 0));
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f != nullptr) {
      // An empty blob's data() may be null, which fwrite must not see.
      if (n > 0) std::fwrite(bytes.data(), 1, n, f);
      std::fclose(f);
    }
    return false;
  }
  // Write-to-temp + rename: concurrent writers of the same path each
  // publish a complete blob instead of interleaving into a CRC-invalid
  // file. The temp name must be unique across processes AND across
  // threads within one (two service threads missing on the same
  // PlanCache key save concurrently), hence pid + a process-wide counter.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  // An empty blob publishes an empty file (and its data() may be null).
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  out.clear();
  if (MSPTRSV_FAILPOINT("cache.disk.read").kind ==
      FailpointHit::Kind::kError) {
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  // Size the buffer up front and read in one call: plan blobs are tens of
  // megabytes and chunked append would re-touch every byte.
  bool ok = std::fseek(f, 0, SEEK_END) == 0;
  const long size = ok ? std::ftell(f) : -1;
  ok = ok && size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
  if (ok) {
    out.resize(static_cast<std::size_t>(size));
    ok = std::fread(out.data(), 1, out.size(), f) == out.size() &&
         std::ferror(f) == 0;
  }
  std::fclose(f);
  if (!ok) out.clear();
  return ok;
}

}  // namespace msptrsv::support
