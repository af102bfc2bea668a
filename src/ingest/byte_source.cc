#include "ingest/byte_source.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/failpoint.hh"

namespace hllc::ingest
{

namespace
{

/** strerror(errno) suffix for IoError messages. */
std::string
errnoText()
{
    return std::strerror(errno);
}

/** Retry-on-EINTR read(2). */
ssize_t
readRetry(int fd, std::uint8_t *out, std::size_t n)
{
    for (;;) {
        const ssize_t got = ::read(fd, out, n);
        if (got >= 0 || errno != EINTR)
            return got;
    }
}

} // anonymous namespace

std::string_view
containerKindName(ContainerKind kind)
{
    switch (kind) {
    case ContainerKind::Raw:
        return "raw";
    case ContainerKind::Gzip:
        return "gzip";
    case ContainerKind::Xz:
        return "xz";
    }
    return "?";
}

std::size_t
MemorySource::read(std::uint8_t *out, std::size_t n)
{
    const std::size_t left = bytes_.size() - pos_;
    const std::size_t take = n < left ? n : left;
    if (take != 0) // an empty buffer's data() may be null
        std::memcpy(out, bytes_.data() + pos_, take);
    pos_ += take;
    return take;
}

FileSource::FileSource(const std::string &path) : path_(path)
{
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) {
        throw IoError("cannot open '" + path + "' for ingest: " +
                      errnoText());
    }
}

FileSource::~FileSource()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::size_t
FileSource::read(std::uint8_t *out, std::size_t n)
{
    const ssize_t got = readRetry(fd_, out, n);
    if (got < 0) {
        throw IoError("read failed on '" + path_ + "': " + errnoText());
    }
    return static_cast<std::size_t>(got);
}

SubprocessSource::SubprocessSource(const std::string &path,
                                   const std::vector<std::string> &argv)
{
    if (argv.empty())
        throw IoError("decompressor argv must not be empty");
    tool_ = argv.front();

    const int in_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (in_fd < 0) {
        throw IoError("cannot open '" + path + "' for ingest: " +
                      errnoText());
    }

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
        const std::string why = errnoText();
        ::close(in_fd);
        throw IoError("cannot create decompressor pipe: " + why);
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        const std::string why = errnoText();
        ::close(in_fd);
        ::close(pipe_fds[0]);
        ::close(pipe_fds[1]);
        throw IoError("cannot fork decompressor '" + tool_ + "': " + why);
    }

    if (pid == 0) {
        // Child: input file on stdin, pipe on stdout, then exec the
        // decompressor. argv is passed as a vector — no shell is ever
        // involved, so a hostile file name cannot inject commands.
        ::dup2(in_fd, STDIN_FILENO);
        ::dup2(pipe_fds[1], STDOUT_FILENO);
        ::close(in_fd);
        ::close(pipe_fds[0]);
        ::close(pipe_fds[1]);
        std::vector<char *> args;
        args.reserve(argv.size() + 1);
        for (const std::string &arg : argv)
            args.push_back(const_cast<char *>(arg.c_str()));
        args.push_back(nullptr);
        ::execvp(args[0], args.data());
        // hllc-lint: allow(no-exit-in-library) a forked child whose
        // exec failed must terminate without unwinding the parent's
        // stack; 127 is the conventional exec-failure status.
        ::_exit(127);
    }

    ::close(in_fd);
    ::close(pipe_fds[1]);
    fd_ = pipe_fds[0];
    pid_ = pid;
}

SubprocessSource::~SubprocessSource()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (pid_ >= 0) {
        // Error-path teardown: the child sees EOF/SIGPIPE and exits;
        // status is irrelevant here, only the reaping matters.
        try {
            wait(false);
        } catch (const IoError &) {
        }
    }
}

void
SubprocessSource::wait(bool check)
{
    if (pid_ < 0)
        return;
    int status = 0;
    pid_t reaped;
    do {
        reaped = ::waitpid(static_cast<pid_t>(pid_), &status, 0);
    } while (reaped < 0 && errno == EINTR);
    pid_ = -1;
    if (!check)
        return;
    if (reaped < 0)
        throw IoError("waitpid failed for '" + tool_ + "'");
    if (WIFEXITED(status) && WEXITSTATUS(status) == 127) {
        throw IoError("decompressor '" + tool_ +
                      "' could not be executed (not installed?)");
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw IoError("decompressor '" + tool_ +
                      "' failed; refusing the truncated stream");
    }
}

std::size_t
SubprocessSource::read(std::uint8_t *out, std::size_t n)
{
    if (fd_ < 0)
        return 0;
    const ssize_t got = readRetry(fd_, out, n);
    if (got < 0) {
        throw IoError("read from decompressor '" + tool_ +
                      "' failed: " + errnoText());
    }
    if (got == 0) {
        // End of stream: only now can the child's verdict be trusted.
        ::close(fd_);
        fd_ = -1;
        wait(true);
    }
    return static_cast<std::size_t>(got);
}

ContainerKind
detectContainer(const std::string &path)
{
    FileSource head(path);
    std::uint8_t magic[6] = {};
    std::size_t have = 0;
    while (have < sizeof(magic)) {
        const std::size_t got =
            head.read(magic + have, sizeof(magic) - have);
        if (got == 0)
            break;
        have += got;
    }
    if (have >= 2 && magic[0] == 0x1f && magic[1] == 0x8b)
        return ContainerKind::Gzip;
    static const std::uint8_t xz_magic[6] = { 0xfd, '7',  'z',
                                              'X',  'Z',  0x00 };
    if (have >= 6 && std::memcmp(magic, xz_magic, 6) == 0)
        return ContainerKind::Xz;
    return ContainerKind::Raw;
}

std::unique_ptr<ByteSource>
openByteSource(const std::string &path, ContainerKind *kind_out)
{
    HLLC_FAILPOINT("ingest.open");
    const ContainerKind kind = detectContainer(path);
    if (kind_out != nullptr)
        *kind_out = kind;
    switch (kind) {
    case ContainerKind::Gzip:
        return std::make_unique<SubprocessSource>(
            path, std::vector<std::string>{ "gzip", "-dc" });
    case ContainerKind::Xz:
        return std::make_unique<SubprocessSource>(
            path, std::vector<std::string>{ "xz", "-dc" });
    case ContainerKind::Raw:
        break;
    }
    return std::make_unique<FileSource>(path);
}

} // namespace hllc::ingest
