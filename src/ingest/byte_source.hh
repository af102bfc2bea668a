/**
 * @file
 * Pluggable byte streams for trace ingestion.
 *
 * External traces arrive as raw files or behind an xz/gzip outer layer;
 * the decoder only ever sees a ByteSource, so the container handling is
 * decided once, by magic bytes, at open time. Decompression is done by
 * piping the file through the system decompressor (fork + exec, no
 * shell), which keeps hostile archive metadata out of this process: the
 * decoder consumes whatever bytes actually arrive and never trusts a
 * declared uncompressed size.
 */

#ifndef HLLC_INGEST_BYTE_SOURCE_HH
#define HLLC_INGEST_BYTE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hh"

namespace hllc::ingest
{

/** Outer container of an input file, detected from its magic bytes. */
enum class ContainerKind : std::uint8_t { Raw, Gzip, Xz };

/** Printable name ("raw", "gzip", "xz") for reports and errors. */
std::string_view containerKindName(ContainerKind kind);

/**
 * A readable stream of bytes. Implementations own whatever backs the
 * stream (memory, a file descriptor, a decompressor subprocess) and
 * report failures as IoError — never by crashing or returning garbage.
 */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    /**
     * Read up to @p n bytes into @p out. Returns the number of bytes
     * produced; 0 means clean end of stream. Throws IoError on any
     * underlying failure (including a decompressor exiting unhappily).
     */
    virtual std::size_t read(std::uint8_t *out, std::size_t n) = 0;
};

/**
 * A ByteSource over bytes in memory (tests, fuzz corpora, benchmarks).
 * It views the caller's buffer without copying it, so the buffer must
 * outlive the source; a temporary vector is rejected at compile time.
 */
class MemorySource : public ByteSource
{
  public:
    explicit MemorySource(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {
    }
    explicit MemorySource(std::vector<std::uint8_t> &&) = delete;

    std::size_t read(std::uint8_t *out, std::size_t n) override;

  private:
    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

/** A ByteSource streaming a plain file via a POSIX descriptor. */
class FileSource : public ByteSource
{
  public:
    /** Opens @p path read-only; throws IoError when that fails. */
    explicit FileSource(const std::string &path);
    ~FileSource() override;

    FileSource(const FileSource &) = delete;
    FileSource &operator=(const FileSource &) = delete;

    std::size_t read(std::uint8_t *out, std::size_t n) override;

  private:
    std::string path_;
    int fd_ = -1;
};

/**
 * A ByteSource reading the stdout of a decompressor child process whose
 * stdin is the opened input file. The child is spawned with fork +
 * execvp directly — the file name never passes through a shell — and
 * its exit status is checked at end of stream: a decompressor that dies
 * mid-stream surfaces as IoError, not as a silently short trace.
 */
class SubprocessSource : public ByteSource
{
  public:
    /**
     * Pipe @p path through @p argv (e.g. {"gzip", "-dc"}). Throws
     * IoError when the file cannot be opened or the child cannot be
     * spawned; a missing decompressor binary surfaces on first read().
     */
    SubprocessSource(const std::string &path,
                     const std::vector<std::string> &argv);
    ~SubprocessSource() override;

    SubprocessSource(const SubprocessSource &) = delete;
    SubprocessSource &operator=(const SubprocessSource &) = delete;

    std::size_t read(std::uint8_t *out, std::size_t n) override;

  private:
    /** Reap the child; throws IoError on non-zero exit iff @p check. */
    void wait(bool check);

    std::string tool_;
    int fd_ = -1;      //!< read end of the child's stdout pipe
    long pid_ = -1;    //!< child pid; -1 once reaped
};

/**
 * Sniff the outer container of @p path from its leading magic bytes
 * (gzip 1f 8b, xz fd '7zXZ' 00; anything else is Raw). Throws IoError
 * when the file cannot be read.
 */
ContainerKind detectContainer(const std::string &path);

/**
 * Open @p path as a ByteSource, stacking the right decompressor when
 * the magic says so. The detected container is reported through
 * @p kind_out when non-null.
 */
std::unique_ptr<ByteSource>
openByteSource(const std::string &path, ContainerKind *kind_out = nullptr);

} // namespace hllc::ingest

#endif // HLLC_INGEST_BYTE_SOURCE_HH
