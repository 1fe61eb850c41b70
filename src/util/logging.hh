/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (a densim bug), fatal() for unusable user input (bad
 * configuration), warn() for non-fatal notices (always printed on
 * stderr).
 */

#ifndef DENSIM_UTIL_LOGGING_HH
#define DENSIM_UTIL_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace densim {

/** What fatal() throws when the throwing mode is enabled. */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * When enabled, fatal() throws FatalError instead of printing and
 * calling std::exit(1). Default off — the CLI's historical contract
 * (and the death tests pinning it) keep working. The keep-going
 * experiment harness enables it around worker runs so one cell's bad
 * configuration becomes a captured RunOutcome instead of taking the
 * whole sweep down. Process-global and sequentially consistent:
 * workers started while the mode is on observe it.
 */
bool fatalThrows();
void setFatalThrows(bool on);

/** RAII guard enabling the fatal-throws mode for a scope. */
class ScopedFatalThrows
{
  public:
    ScopedFatalThrows() : prev_(fatalThrows()) { setFatalThrows(true); }
    ~ScopedFatalThrows() { setFatalThrows(prev_); }
    ScopedFatalThrows(const ScopedFatalThrows &) = delete;
    ScopedFatalThrows &operator=(const ScopedFatalThrows &) = delete;

  private:
    bool prev_;
};

namespace detail {

[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);

/** Concatenate any streamable arguments into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/**
 * Abort with a message; use for conditions that indicate a bug in
 * densim itself regardless of user input.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(detail::concat(std::forward<Args>(args)...),
                      __FILE__, __LINE__);
}

/**
 * Exit with an error message; use for conditions caused by invalid
 * user-supplied configuration or input.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print a warning to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace densim

#endif // DENSIM_UTIL_LOGGING_HH
