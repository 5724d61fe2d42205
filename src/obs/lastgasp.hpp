// Crash last-gasp: when the process dies violently (SIGSEGV, SIGABRT,
// SIGFPE, SIGBUS, SIGILL or an uncaught exception reaching std::terminate),
// write what we know to a pre-opened file before handing the signal back.
//
// The bundle is JSONL, one self-describing record per line:
//
//   {"last_gasp":{"reason":"SIGSEGV","run_id":"..."}}     <- header
//   {"phase_stack":{"slot":0,"stack":"bench/run;sim/transient"}}
//   {"seq":412,"ts":3.1,"lvl":"info","comp":"progress",...}  <- ring tail
//
// Async-signal-safety is the design constraint: the handler may interrupt
// a thread holding the malloc lock, so it allocates nothing and calls
// nothing but write(2)/fsync(2) on a file descriptor opened at install
// time.  That works because the event ring (obs/events) stores fully
// serialised lines and the phase stacks (obs/phasestack) store fixed char
// arrays — dumping either is a byte copy.  The run-manifest header is
// rendered once, at install time, into a static buffer.
//
// Installing activates the event journal and phase-stack tracking (the
// bundle would be empty otherwise) and chains to the previously installed
// disposition after writing (default: the process still dies and the core
// dump still happens).  Env: SNIM_LASTGASP=path (see init_live_from_env).
#pragma once

#include <string>

namespace snim::obs {

/// Opens `path` for writing (truncating; raises snim::Error on failure) and
/// installs the fatal-signal + std::terminate handlers.  Re-installing
/// switches the target file.
void install_last_gasp(const std::string& path);

/// Restores default dispositions and closes the bundle fd.  The bundle
/// file is left on disk (possibly empty when nothing died).
void uninstall_last_gasp();

bool last_gasp_installed();

/// Target path of the installed handler ("" when not installed).
std::string last_gasp_path();

namespace detail {
/// Writes the bundle records to the pre-opened fd right now, as the signal
/// handler would (async-signal-safe; `reason` must be a literal or an
/// otherwise-stable NUL-terminated string).  Returns false when no handler
/// is installed.  Exposed for tests — calling it does not kill the process.
bool write_last_gasp_now(const char* reason);
} // namespace detail

} // namespace snim::obs
