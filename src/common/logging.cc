/**
 * @file
 * Logging sinks. panic() throws in unit-test builds would complicate
 * death tests; instead both fatal() and panic() terminate, and gtest
 * death tests assert on the printed prefix.
 */

#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace qsa
{

namespace
{

/**
 * One lock around every sink write: pool workers warn concurrently
 * and interleaved ostream inserts would tear the lines. Leaked so
 * messages from static destructors stay safe.
 */
std::mutex &
sinkMutex()
{
    static std::mutex *mutex = new std::mutex;
    return *mutex;
}

void
emit(const char *prefix, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::cerr << prefix << msg << std::endl;
}

} // anonymous namespace

void
informMessage(const std::string &msg)
{
    emit("info: ", msg);
}

void
warnMessage(const std::string &msg)
{
    emit("warn: ", msg);
}

void
fatalMessage(const std::string &msg)
{
    emit("fatal: ", msg);
    // _Exit, not exit: static teardown would join ThreadPool workers,
    // and in a forked death-test child those threads do not exist (the
    // child then deadlocks or crashes instead of exiting 1). The
    // output streams are flushed by hand since _Exit skips it.
    std::cout.flush();
    std::cerr.flush();
    std::fflush(nullptr);
    std::_Exit(1);
}

void
panicMessage(const std::string &msg)
{
    emit("panic: ", msg);
    std::abort();
}

} // namespace qsa
