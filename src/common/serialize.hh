/**
 * @file
 * Versioned, CRC32-checksummed chunked container with atomic
 * persistence — the one binary on-disk format the simulator trusts.
 *
 * Both forecast checkpoints and v2 .hlt traces are containers:
 *
 *   u32 magic            (per format: "HLCK" checkpoints, "HLT2" traces)
 *   u32 format version   (container layout; currently 1)
 *   u32 payload version  (format-specific, range-checked by the reader)
 *   u32 chunk count
 *   per chunk: u8 tag length, tag bytes, u64 payload size, payload
 *   u32 CRC32            (over every preceding byte)
 *
 * Readers validate every length against the bytes actually present
 * before allocating, and verify the CRC before any chunk is exposed, so
 * a truncated or bit-flipped file is rejected with an IoError — never a
 * crash or an arbitrary-size allocation. Writers persist atomically:
 * the container is written to "<path>.tmp", fsync()ed, then rename()d
 * over the destination, so a crash mid-write leaves the previous good
 * file (or no file) in place, never a torn one.
 *
 * Encoder/Decoder provide the primitive layer: little-endian-packed
 * integers and IEEE-754 doubles round-trip bit-exactly, which is what
 * makes checkpoint/resume byte-identical to an uninterrupted run.
 *
 * The write path runs at memory speed. Encoder grows its buffer once
 * per field (once per vector for u64Vec/f64Vec) and stores explicit
 * little-endian bytes through storeLe(); Container::encode reserves the
 * exact image size up front; bulk records (the .hlt event stream) are
 * packed by their owner into one grow() with plain pointer stores.
 * crc32() is a portable slicing-by-8 kernel: eight 256-entry tables
 * derived from the reflected polynomial consume eight input bytes per
 * step, with the same result and chaining contract as the bytewise
 * definition (which lives only in the tests, as their oracle).
 */

#ifndef HLLC_COMMON_SERIALIZE_HH
#define HLLC_COMMON_SERIALIZE_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace hllc::serial
{

/*
 * Little-endian store/load at any alignment, on any host. The byte
 * accesses are expanded by a fold expression rather than a loop, so the
 * compiler sees straight-line code and merges it into one (unaligned)
 * word access at -O2 on little-endian targets.
 */

/** Store @p v at @p p as sizeof(T) little-endian bytes. */
template <std::unsigned_integral T>
inline void
storeLe(std::uint8_t *p, T v)
{
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        ((p[I] = static_cast<std::uint8_t>(v >> (8 * I))), ...);
    }(std::make_index_sequence<sizeof(T)>{});
}

/** Load a little-endian @p T from @p p. */
template <std::unsigned_integral T>
inline T
loadLe(const std::uint8_t *p)
{
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return static_cast<T>(((static_cast<T>(p[I]) << (8 * I)) | ...));
    }(std::make_index_sequence<sizeof(T)>{});
}

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320); @p crc chains calls. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t crc = 0);

/** Append-only byte buffer with primitive packing. */
class Encoder
{
  public:
    void u8(std::uint8_t v) { out_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /** Bit-exact IEEE-754 encoding (via the u64 bit pattern). */
    void f64(double v);
    void raw(const void *data, std::size_t size);
    /** u64 length prefix + bytes. */
    void str(const std::string &s);
    /** u64 element-count prefix + bit-exact doubles. */
    void f64Vec(const std::vector<double> &v);
    /** u64 element-count prefix + u64 elements. */
    void u64Vec(const std::vector<std::uint64_t> &v);

    /**
     * Append @p n zero bytes for the caller to fill (bulk records);
     * returns the first one, valid until the next append.
     */
    std::uint8_t *grow(std::size_t n);

    const std::vector<std::uint8_t> &bytes() const { return out_; }
    std::vector<std::uint8_t> &bytes() { return out_; }

  private:
    std::vector<std::uint8_t> out_;
};

/**
 * Bounds-checked cursor over a byte span (not owned). Every read that
 * would run past the end throws IoError, so malformed inputs can never
 * cause out-of-bounds reads or unbounded allocations.
 */
class Decoder
{
  public:
    Decoder(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit Decoder(const std::vector<std::uint8_t> &bytes)
        : Decoder(bytes.data(), bytes.size())
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    void raw(void *data, std::size_t size);
    /** Length-prefixed string; rejects lengths beyond @p max_len. */
    std::string str(std::size_t max_len = 4096);
    /** Count-prefixed doubles; count validated against bytes left. */
    std::vector<double> f64Vec();
    std::vector<std::uint64_t> u64Vec();

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    /** Throw IoError unless @p n more bytes are available. */
    void require(std::size_t n) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** One tagged chunk of a container. */
struct Chunk
{
    std::string tag;
    Encoder payload;
};

class Container
{
  public:
    /** Start a new chunk; returns its payload encoder. Tags ≤ 32 B. */
    Encoder &add(const std::string &tag);

    bool has(const std::string &tag) const;
    /**
     * Decoder over @p tag's payload (valid while the container lives);
     * throws IoError when the chunk is absent.
     */
    Decoder open(const std::string &tag) const;

    std::size_t chunkCount() const { return chunks_.size(); }

    /** Serialise to bytes: header, chunks, CRC trailer. */
    std::vector<std::uint8_t> encode(std::uint32_t magic,
                                     std::uint32_t payload_version) const;

    /**
     * Parse and fully validate a container image. @p payload_version
     * must fall in [min_version, max_version]; the accepted version is
     * returned through @p version_out when non-null. Throws IoError on
     * any structural problem or CRC mismatch.
     */
    static Container decode(const std::uint8_t *data, std::size_t size,
                            std::uint32_t magic,
                            std::uint32_t min_version,
                            std::uint32_t max_version,
                            std::uint32_t *version_out = nullptr);

    /** encode() + atomic write (temp file, fsync, rename). */
    void save(const std::string &path, std::uint32_t magic,
              std::uint32_t payload_version) const;

    /** Read @p path fully, then decode(). */
    static Container load(const std::string &path, std::uint32_t magic,
                          std::uint32_t min_version,
                          std::uint32_t max_version,
                          std::uint32_t *version_out = nullptr);

  private:
    std::vector<Chunk> chunks_;
};

/**
 * Crash-safe whole-file write: the bytes land in "<path>.tmp", are
 * fsync()ed, replace @p path via rename(2), and the parent directory is
 * fsync()ed so the rename itself survives a crash. An orphaned tmp file
 * from a previous crash is removed first, and a failed write never
 * leaves its own tmp file behind. Throws IoError; on failure @p path is
 * either untouched or already fully replaced (the rename is the commit
 * point).
 */
void writeFileAtomic(const std::string &path, const void *data,
                     std::size_t size);

/** Read an entire file; throws IoError (missing file included). */
std::vector<std::uint8_t> readFileBytes(const std::string &path);

} // namespace hllc::serial

#endif // HLLC_COMMON_SERIALIZE_HH
