/**
 * @file
 * Typed error hierarchy for recoverable library failures.
 *
 * Library code (trace I/O, checkpoint containers, stats lookups) must
 * never kill the process: a grid running hundreds of forecast cells has
 * to survive one bad file. Recoverable problems therefore surface as
 * subclasses of hllc::Error, which callers either handle (a grid cell
 * degrades to "failed", a resume path falls back to a fresh start) or
 * convert to fatal() at the CLI boundary. fatal() itself remains
 * reserved for the tool mains.
 */

#ifndef HLLC_COMMON_ERROR_HH
#define HLLC_COMMON_ERROR_HH

#include <stdexcept>
#include <string>

namespace hllc
{

/** Root of the recoverable-error hierarchy. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/**
 * A file could not be opened, read, written, or failed validation
 * (bad magic, impossible lengths, CRC mismatch, truncation).
 */
class IoError : public Error
{
  public:
    explicit IoError(const std::string &what_arg) : Error(what_arg) {}
};

/**
 * A grid cell attempt passed its deadline and stopped at a step
 * boundary. Deliberately NOT retried: a cell that is too slow once
 * will be too slow again, so the grid quarantines it immediately
 * instead of burning the retry budget.
 */
class DeadlineExceededError : public Error
{
  public:
    explicit DeadlineExceededError(const std::string &what_arg)
        : Error(what_arg)
    {
    }
};

/**
 * A statistic was looked up by a name that was never registered —
 * almost always a typo in the caller, which silently fabricating a 0
 * would hide.
 */
class StatError : public Error
{
  public:
    explicit StatError(const std::string &what_arg) : Error(what_arg) {}
};

} // namespace hllc

#endif // HLLC_COMMON_ERROR_HH
