#include "common/serialize.hh"

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include <fcntl.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/numfmt.hh"

namespace hllc::serial
{

namespace
{

/** Container layout version (the "format version" header field). */
constexpr std::uint32_t containerFormatVersion = 1;
/** Sanity caps on header-declared counts (far above any real use). */
constexpr std::uint32_t maxChunks = 1024;
constexpr std::size_t maxTagLen = 32;

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::string
errnoMessage()
{
    return std::strerror(errno);
}

/**
 * Slicing-by-8 tables for the reflected polynomial 0xEDB88320. Row 0 is
 * the classic bytewise table; row k advances a byte through k further
 * zero bytes, so one step folds eight input bytes with eight lookups.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
    return t;
}

constexpr CrcTables crcTables = makeCrcTables();

} // anonymous namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t crc)
{
    const auto &t = crcTables;
    const auto *p = static_cast<const std::uint8_t *>(data);
    crc = ~crc;
    for (; size >= 8; size -= 8, p += 8) {
        const std::uint32_t lo = crc ^ loadLe<std::uint32_t>(p);
        const std::uint32_t hi = loadLe<std::uint32_t>(p + 4);
        crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
              t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
              t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; size > 0; --size, ++p)
        crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

std::uint8_t *
Encoder::grow(std::size_t n)
{
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
}

void
Encoder::u32(std::uint32_t v)
{
    storeLe(grow(4), v);
}

void
Encoder::u64(std::uint64_t v)
{
    storeLe(grow(8), v);
}

void
Encoder::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Encoder::raw(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    out_.insert(out_.end(), p, p + size);
}

void
Encoder::str(const std::string &s)
{
    u64(s.size());
    raw(s.data(), s.size());
}

void
Encoder::f64Vec(const std::vector<double> &v)
{
    std::uint8_t *p = grow(8 * (v.size() + 1));
    storeLe<std::uint64_t>(p, v.size());
    for (const double d : v) {
        p += 8;
        storeLe(p, std::bit_cast<std::uint64_t>(d));
    }
}

void
Encoder::u64Vec(const std::vector<std::uint64_t> &v)
{
    std::uint8_t *p = grow(8 * (v.size() + 1));
    storeLe<std::uint64_t>(p, v.size());
    for (const std::uint64_t x : v) {
        p += 8;
        storeLe(p, x);
    }
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

void
Decoder::require(std::size_t n) const
{
    if (n > size_ - pos_)
        throw IoError("truncated record: need " + formatU64(n) +
                      " bytes, " + formatU64(size_ - pos_) +
                      " available");
}

std::uint8_t
Decoder::u8()
{
    require(1);
    return data_[pos_++];
}

std::uint32_t
Decoder::u32()
{
    require(4);
    const auto v = loadLe<std::uint32_t>(data_ + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t
Decoder::u64()
{
    require(8);
    const auto v = loadLe<std::uint64_t>(data_ + pos_);
    pos_ += 8;
    return v;
}

double
Decoder::f64()
{
    return std::bit_cast<double>(u64());
}

void
Decoder::raw(void *data, std::size_t size)
{
    require(size);
    std::memcpy(data, data_ + pos_, size);
    pos_ += size;
}

std::string
Decoder::str(std::size_t max_len)
{
    const std::uint64_t len = u64();
    if (len > max_len)
        throw IoError("string length " + formatU64(len) +
                      " exceeds limit " + formatU64(max_len));
    require(static_cast<std::size_t>(len));
    std::string s(reinterpret_cast<const char *>(data_ + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
}

std::vector<double>
Decoder::f64Vec()
{
    const std::uint64_t count = u64();
    // Validate the declared count against the bytes actually present
    // before allocating anything.
    if (count > remaining() / 8)
        throw IoError("vector count " + formatU64(count) +
                      " exceeds the bytes available");
    std::vector<double> v;
    v.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i)
        v.push_back(f64());
    return v;
}

std::vector<std::uint64_t>
Decoder::u64Vec()
{
    const std::uint64_t count = u64();
    if (count > remaining() / 8)
        throw IoError("vector count " + formatU64(count) +
                      " exceeds the bytes available");
    std::vector<std::uint64_t> v;
    v.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i)
        v.push_back(u64());
    return v;
}

// ---------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------

Encoder &
Container::add(const std::string &tag)
{
    if (tag.empty() || tag.size() > maxTagLen)
        throw IoError("bad chunk tag '" + tag + "'");
    chunks_.push_back(Chunk{ tag, Encoder{} });
    return chunks_.back().payload;
}

bool
Container::has(const std::string &tag) const
{
    for (const Chunk &c : chunks_) {
        if (c.tag == tag)
            return true;
    }
    return false;
}

Decoder
Container::open(const std::string &tag) const
{
    for (const Chunk &c : chunks_) {
        if (c.tag == tag)
            return Decoder(c.payload.bytes());
    }
    throw IoError("missing chunk '" + tag + "'");
}

std::vector<std::uint8_t>
Container::encode(std::uint32_t magic, std::uint32_t payload_version) const
{
    std::size_t total = 16 + 4; // header + CRC trailer
    for (const Chunk &c : chunks_)
        total += 1 + c.tag.size() + 8 + c.payload.bytes().size();
    Encoder enc;
    enc.bytes().reserve(total);
    enc.u32(magic);
    enc.u32(containerFormatVersion);
    enc.u32(payload_version);
    enc.u32(static_cast<std::uint32_t>(chunks_.size()));
    for (const Chunk &c : chunks_) {
        enc.u8(static_cast<std::uint8_t>(c.tag.size()));
        enc.raw(c.tag.data(), c.tag.size());
        enc.u64(c.payload.bytes().size());
        enc.raw(c.payload.bytes().data(), c.payload.bytes().size());
    }
    enc.u32(crc32(enc.bytes().data(), enc.bytes().size()));
    return std::move(enc.bytes());
}

Container
Container::decode(const std::uint8_t *data, std::size_t size,
                  std::uint32_t magic, std::uint32_t min_version,
                  std::uint32_t max_version, std::uint32_t *version_out)
{
    // Header (16) + CRC trailer (4) is the smallest legal container.
    if (size < 20)
        throw IoError("container too small (" + formatU64(size) +
                      " bytes)");

    // The trailer is little-endian like every other field.
    Decoder trailer(data + size - 4, 4);
    const std::uint32_t stored_crc = trailer.u32();
    const std::uint32_t actual_crc = crc32(data, size - 4);
    if (stored_crc != actual_crc)
        throw IoError("container CRC mismatch");

    Decoder dec(data, size - 4);
    if (dec.u32() != magic)
        throw IoError("bad container magic");
    const std::uint32_t format = dec.u32();
    if (format != containerFormatVersion)
        throw IoError("unsupported container format version " +
                      formatU64(format));
    const std::uint32_t payload_version = dec.u32();
    if (payload_version < min_version || payload_version > max_version)
        throw IoError("unsupported payload version " +
                      formatU64(payload_version));
    const std::uint32_t count = dec.u32();
    if (count > maxChunks)
        throw IoError("implausible chunk count " + formatU64(count));

    Container container;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t tag_len = dec.u8();
        if (tag_len == 0 || tag_len > maxTagLen)
            throw IoError("bad chunk tag length");
        std::string tag(tag_len, '\0');
        dec.raw(tag.data(), tag_len);
        const std::uint64_t chunk_size = dec.u64();
        if (chunk_size > dec.remaining())
            throw IoError("chunk '" + tag + "' overruns the container");
        Encoder &payload = container.add(tag);
        payload.bytes().resize(static_cast<std::size_t>(chunk_size));
        dec.raw(payload.bytes().data(),
                static_cast<std::size_t>(chunk_size));
    }
    if (!dec.atEnd())
        throw IoError("trailing bytes after the last chunk");
    if (version_out != nullptr)
        *version_out = payload_version;
    return container;
}

void
Container::save(const std::string &path, std::uint32_t magic,
                std::uint32_t payload_version) const
{
    const std::vector<std::uint8_t> bytes = encode(magic, payload_version);
    writeFileAtomic(path, bytes.data(), bytes.size());
}

Container
Container::load(const std::string &path, std::uint32_t magic,
                std::uint32_t min_version, std::uint32_t max_version,
                std::uint32_t *version_out)
{
    const std::vector<std::uint8_t> bytes = readFileBytes(path);
    try {
        return decode(bytes.data(), bytes.size(), magic, min_version,
                      max_version, version_out);
    } catch (const IoError &e) {
        throw IoError("'" + path + "': " + e.what());
    }
}

// ---------------------------------------------------------------------
// Whole-file I/O
// ---------------------------------------------------------------------

namespace
{

/**
 * fsync the directory containing @p path, so the rename that just made
 * a file visible is itself durable (a crash after rename but before
 * the directory reaches disk can otherwise resurrect the old version —
 * or nothing at all).
 */
void
syncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        throw IoError("cannot open directory '" + dir +
                      "' for fsync: " + errnoMessage());
    const int rc = ::fsync(fd);
    const int saved_errno = errno;
    ::close(fd);
    if (rc != 0) {
        errno = saved_errno;
        throw IoError("fsync of directory '" + dir + "' failed: " +
                      errnoMessage());
    }
    HLLC_FAILPOINT("serialize.write.dirsync");
}

/** The body of writeFileAtomic, minus tmp-file cleanup on failure. */
void
writeFileAtomicImpl(const std::string &path, const std::string &tmp,
                    const void *data, std::size_t size)
{
    {
        HLLC_FAILPOINT("serialize.write.open");
        FilePtr f(std::fopen(tmp.c_str(), "wb"));
        if (!f)
            throw IoError("cannot open '" + tmp + "' for writing: " +
                          errnoMessage());
        // Injected short write: persist only a prefix, then fail the
        // way a full disk does — the bytes are already in the file.
        std::size_t write_size = size;
        if (failpoint::shouldFail("serialize.write.short"))
            write_size = size / 2;
        // Injected corruption: flip one payload bit on the way out, so
        // the rename succeeds but the CRC check rejects the file.
        std::vector<std::uint8_t> corrupted;
        const void *write_data = data;
        if (size > 0 && failpoint::shouldFail("serialize.write.corrupt")) {
            const auto *p = static_cast<const std::uint8_t *>(data);
            corrupted.assign(p, p + size);
            corrupted[size / 2] ^= 0x01;
            write_data = corrupted.data();
        }
        if (write_size > 0 &&
            std::fwrite(write_data, 1, write_size, f.get()) != write_size)
            throw IoError("short write to '" + tmp + "'");
        if (write_size != size)
            throw IoError("short write to '" + tmp +
                          "' (injected fault at failpoint "
                          "'serialize.write.short')");
        if (std::fflush(f.get()) != 0)
            throw IoError("flush of '" + tmp + "' failed: " +
                          errnoMessage());
        // The data must be durable before the rename makes it visible,
        // or a crash could leave a renamed-but-empty file.
        HLLC_FAILPOINT("serialize.write.fsync");
        if (::fsync(::fileno(f.get())) != 0)
            throw IoError("fsync of '" + tmp + "' failed: " +
                          errnoMessage());
    }
    HLLC_FAILPOINT("serialize.write.rename");
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw IoError("rename '" + tmp + "' -> '" + path + "' failed: " +
                      errnoMessage());
    syncParentDir(path);
}

} // anonymous namespace

void
writeFileAtomic(const std::string &path, const void *data,
                std::size_t size)
{
    const std::string tmp = path + ".tmp";
    // A crash between fopen and rename in a previous run leaves an
    // orphaned tmp file; fopen("wb") would truncate it anyway, but an
    // orphan must also not outlive a *failed* write below.
    std::remove(tmp.c_str());
    try {
        writeFileAtomicImpl(path, tmp, data, size);
    } catch (...) {
        // Never leave a partial tmp file behind: the next writer (or a
        // resume scan) must only ever see fully-renamed files.
        std::remove(tmp.c_str());
        throw;
    }
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    HLLC_FAILPOINT("serialize.read");
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        throw IoError("cannot open '" + path + "': " + errnoMessage());
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        throw IoError("seek in '" + path + "' failed");
    const long end = std::ftell(f.get());
    if (end < 0)
        throw IoError("cannot size '" + path + "'");
    std::rewind(f.get());

    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(end));
    if (!bytes.empty() &&
        std::fread(bytes.data(), 1, bytes.size(), f.get()) !=
            bytes.size()) {
        throw IoError("short read from '" + path + "'");
    }
    return bytes;
}

} // namespace hllc::serial
