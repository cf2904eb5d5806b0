// In-memory span recorder for provbench_traced.
//
// provbench_traced is linked with `--wrap` on the layer entry points
// listed in wrapped_symbols.txt; the wrappers in trace.cpp open a Scope
// around each real call, so calls made *inside* the program (the
// pipeline calling the recorder, the service calling its journal) are
// timed without touching the program's sources. provbench links the
// same recorder without the wrappers and never switches recording on.
//
// A span carries its name, start and end (steady clock, ns), the span
// that was open on the same thread when it started (its parent), the
// operation it belongs to (one id per cell or request) and one work
// count chosen by the layer (events, bytes, steps, ...).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace provbench::trace {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double count = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// True in provbench_traced.
bool compiled_in();

/// Record spans from now on (off: wrappers call straight through).
void set_recording(bool on);

/// Operation id stamped on spans opened by this thread.
void set_operation(std::uint64_t op);

/// Steady-clock nanoseconds, the span time base.
std::int64_t now_ns();

class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_count(double count) { count_ = count; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
  double count_ = 0;
};

/// Everything recorded so far, in completion order; clears the buffer.
std::vector<Span> take();

/// Append spans as JSON lines to `path`.
void write_spans(const std::string& path, const std::vector<Span>& spans);

/// Sum of durations (ms) and counts of the spans called `name`.
struct Total {
  std::size_t calls = 0;
  double ms = 0;
  double count = 0;
};
Total total(const std::vector<Span>& spans, const char* name);

}  // namespace provbench::trace
