#include "util/logging.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>

namespace densim {

namespace {
std::atomic<bool> gFatalThrows{false};
} // namespace

bool
fatalThrows()
{
    return gFatalThrows.load();
}

void
setFatalThrows(bool on)
{
    gFatalThrows.store(on);
}

namespace detail {

void
panicImpl(const std::string &msg, const char *file, int line)
{
    std::cerr << "panic: " << msg << " (" << file << ":" << line << ")\n";
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    if (gFatalThrows.load())
        throw FatalError(msg);
    std::cerr << "fatal: " << msg << "\n";
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << "\n";
}

} // namespace detail

} // namespace densim
