#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

#ifdef PROVBENCH_TRACED
#include "bench_suite/executor.h"
#include "core/compare.h"
#include "core/generalize.h"
#include "core/pipeline.h"
#include "core/transform.h"
#include "graph/algorithms.h"
#include "matcher/interned.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "systems/recorder.h"
#endif

namespace provbench::trace {

namespace {

std::atomic<bool> g_recording{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mutex;
std::vector<Span> g_spans;

thread_local std::uint64_t t_open = 0;  // innermost open span on this thread
thread_local std::uint64_t t_op = 0;

}  // namespace

bool compiled_in() {
#ifdef PROVBENCH_TRACED
  return true;
#else
  return false;
#endif
}

void set_recording(bool on) { g_recording.store(on); }
void set_operation(std::uint64_t op) { t_op = op; }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(const char* name) : name_(name) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open;
  t_open = id_;
  start_ns_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  Span span{name_, id_, parent_, t_op, start_ns_, now_ns(), count_};
  t_open = parent_;
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(span);
}

std::vector<Span> take() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<Span> out;
  out.swap(g_spans);
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"count\":%.17g}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.count);
  }
  std::fclose(f);
}

Total total(const std::vector<Span>& spans, const char* name) {
  Total t;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    ++t.calls;
    t.ms += s.ms();
    t.count += s.count;
  }
  return t;
}

}  // namespace provbench::trace

#ifdef PROVBENCH_TRACED
// -- linker wrappers ------------------------------------------------------------
// Each __wrap_X receives every call the program makes to X (GNU ld
// --wrap, one per line of wrapped_symbols.txt) and forwards to
// __real_X inside a span. Member functions take `this` first.

namespace pm = provmark;
using provbench::trace::Scope;

namespace {

/// Times Recorder::record by decorating every recorder the factory
/// hands out (record is virtual, so it cannot be wrapped at link time).
class TimedRecorder : public pm::systems::Recorder {
 public:
  explicit TimedRecorder(std::unique_ptr<pm::systems::Recorder> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::string output_format() const override {
    return inner_->output_format();
  }
  std::set<std::string> extra_audit_rules() const override {
    return inner_->extra_audit_rules();
  }
  double recording_latency() const override {
    return inner_->recording_latency();
  }
  std::string record(const pm::os::EventTrace& trace,
                     const pm::systems::TrialContext& trial) override {
    Scope span("systems.record");
    std::string native = inner_->record(trace, trial);
    span.set_count(static_cast<double>(native.size()));
    return native;
  }

 private:
  std::unique_ptr<pm::systems::Recorder> inner_;
};

std::atomic<std::uint64_t> g_next_cell{1};

double steps_of(const pm::matcher::Stats& stats) {
  return static_cast<double>(stats.steps);
}

void note_cutoff(const pm::matcher::Stats& stats) {
  if (stats.budget_exhausted) Scope cutoff("matcher.cutoff");
}

}  // namespace

extern "C" {

// bench_suite::execute_program
pm::bench_suite::ExecutionResult
__real__ZN8provmark11bench_suite15execute_programERKNS0_16BenchmarkProgramEbmRKSt3setINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt4lessISA_ESaISA_EE(
    const pm::bench_suite::BenchmarkProgram&, bool, std::uint64_t,
    const std::set<std::string>&);
pm::bench_suite::ExecutionResult
__wrap__ZN8provmark11bench_suite15execute_programERKNS0_16BenchmarkProgramEbmRKSt3setINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt4lessISA_ESaISA_EE(
    const pm::bench_suite::BenchmarkProgram& program, bool include_target,
    std::uint64_t seed, const std::set<std::string>& rules) {
  Scope span("os.execute");
  pm::bench_suite::ExecutionResult result =
      __real__ZN8provmark11bench_suite15execute_programERKNS0_16BenchmarkProgramEbmRKSt3setINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt4lessISA_ESaISA_EE(
          program, include_target, seed, rules);
  span.set_count(static_cast<double>(result.trace.libc.size() +
                                     result.trace.audit.size() +
                                     result.trace.lsm.size()));
  return result;
}

// systems::make_recorder
std::unique_ptr<pm::systems::Recorder>
__real__ZN8provmark7systems13make_recorderERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const std::string&);
std::unique_ptr<pm::systems::Recorder>
__wrap__ZN8provmark7systems13make_recorderERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    const std::string& system) {
  return std::make_unique<TimedRecorder>(
      __real__ZN8provmark7systems13make_recorderERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
          system));
}

// core::transform_native
pm::graph::PropertyGraph
__real__ZN8provmark4core16transform_nativeESt17basic_string_viewIcSt11char_traitsIcEERKNS0_16TransformOptionsE(
    std::string_view, const pm::core::TransformOptions&);
pm::graph::PropertyGraph
__wrap__ZN8provmark4core16transform_nativeESt17basic_string_viewIcSt11char_traitsIcEERKNS0_16TransformOptionsE(
    std::string_view native, const pm::core::TransformOptions& options) {
  Scope span("formats.parse");
  span.set_count(static_cast<double>(native.size()));
  return __real__ZN8provmark4core16transform_nativeESt17basic_string_viewIcSt11char_traitsIcEERKNS0_16TransformOptionsE(
      native, options);
}

// graph::structural_digest
std::uint64_t __real__ZN8provmark5graph17structural_digestERKNS0_13PropertyGraphE(
    const pm::graph::PropertyGraph&);
std::uint64_t __wrap__ZN8provmark5graph17structural_digestERKNS0_13PropertyGraphE(
    const pm::graph::PropertyGraph& g) {
  Scope span("graph.digest");
  return __real__ZN8provmark5graph17structural_digestERKNS0_13PropertyGraphE(g);
}

// matcher::InternedGraph::InternedGraph(const PropertyGraph&, SymbolTable&)
void __real__ZN8provmark7matcher13InternedGraphC1ERKNS_5graph13PropertyGraphERNS2_11SymbolTableE(
    pm::matcher::InternedGraph*, const pm::graph::PropertyGraph&,
    pm::graph::SymbolTable&);
void __wrap__ZN8provmark7matcher13InternedGraphC1ERKNS_5graph13PropertyGraphERNS2_11SymbolTableE(
    pm::matcher::InternedGraph* self, const pm::graph::PropertyGraph& g,
    pm::graph::SymbolTable& symbols) {
  Scope span("graph.intern");
  __real__ZN8provmark7matcher13InternedGraphC1ERKNS_5graph13PropertyGraphERNS2_11SymbolTableE(
      self, g, symbols);
}

// core::generalize_trials (interned overload, the pipeline's path)
std::optional<pm::core::GeneralizeResult>
__real__ZN8provmark4core17generalize_trialsERKSt6vectorIPKNS_7matcher13InternedGraphESaIS5_EERKS1_ImSaImEERKNS0_17GeneralizeOptionsEPNS2_14SimilarityMemoEPNS_7runtime10ThreadPoolE(
    const std::vector<const pm::matcher::InternedGraph*>&,
    const std::vector<std::uint64_t>&, const pm::core::GeneralizeOptions&,
    pm::matcher::SimilarityMemo*, pm::runtime::ThreadPool*);
std::optional<pm::core::GeneralizeResult>
__wrap__ZN8provmark4core17generalize_trialsERKSt6vectorIPKNS_7matcher13InternedGraphESaIS5_EERKS1_ImSaImEERKNS0_17GeneralizeOptionsEPNS2_14SimilarityMemoEPNS_7runtime10ThreadPoolE(
    const std::vector<const pm::matcher::InternedGraph*>& trials,
    const std::vector<std::uint64_t>& digests,
    const pm::core::GeneralizeOptions& options,
    pm::matcher::SimilarityMemo* memo, pm::runtime::ThreadPool* pool) {
  Scope span("core.generalize");
  std::optional<pm::core::GeneralizeResult> result =
      __real__ZN8provmark4core17generalize_trialsERKSt6vectorIPKNS_7matcher13InternedGraphESaIS5_EERKS1_ImSaImEERKNS0_17GeneralizeOptionsEPNS2_14SimilarityMemoEPNS_7runtime10ThreadPoolE(
          trials, digests, options, memo, pool);
  if (result.has_value()) {
    span.set_count(steps_of(result->search_stats));
    note_cutoff(result->search_stats);
  }
  return result;
}

// core::compare_graphs (interned overload)
pm::core::CompareResult
__real__ZN8provmark4core14compare_graphsERKNS_7matcher13InternedGraphES4_RKNS0_14CompareOptionsE(
    const pm::matcher::InternedGraph&, const pm::matcher::InternedGraph&,
    const pm::core::CompareOptions&);
pm::core::CompareResult
__wrap__ZN8provmark4core14compare_graphsERKNS_7matcher13InternedGraphES4_RKNS0_14CompareOptionsE(
    const pm::matcher::InternedGraph& background,
    const pm::matcher::InternedGraph& foreground,
    const pm::core::CompareOptions& options) {
  Scope span("core.compare");
  pm::core::CompareResult result =
      __real__ZN8provmark4core14compare_graphsERKNS_7matcher13InternedGraphES4_RKNS0_14CompareOptionsE(
          background, foreground, options);
  span.set_count(steps_of(result.search_stats));
  note_cutoff(result.search_stats);
  return result;
}

// core::run_benchmark — one span per cell
pm::core::BenchmarkResult
__real__ZN8provmark4core13run_benchmarkERKNS_11bench_suite16BenchmarkProgramERKNS0_15PipelineOptionsE(
    const pm::bench_suite::BenchmarkProgram&, const pm::core::PipelineOptions&);
pm::core::BenchmarkResult
__wrap__ZN8provmark4core13run_benchmarkERKNS_11bench_suite16BenchmarkProgramERKNS0_15PipelineOptionsE(
    const pm::bench_suite::BenchmarkProgram& program,
    const pm::core::PipelineOptions& options) {
  provbench::trace::set_operation(g_next_cell.fetch_add(1));
  Scope span("pipeline.cell");
  return __real__ZN8provmark4core13run_benchmarkERKNS_11bench_suite16BenchmarkProgramERKNS0_15PipelineOptionsE(
      program, options);
}

// serve::parse_request
pm::serve::Request
__real__ZN8provmark5serve13parse_requestESt17basic_string_viewIcSt11char_traitsIcEE(
    std::string_view);
pm::serve::Request
__wrap__ZN8provmark5serve13parse_requestESt17basic_string_viewIcSt11char_traitsIcEE(
    std::string_view line) {
  Scope span("serve.protocol.parse");
  return __real__ZN8provmark5serve13parse_requestESt17basic_string_viewIcSt11char_traitsIcEE(
      line);
}

// serve::Journal::append
void __real__ZN8provmark5serve7Journal6appendERKNS0_13JournalRecordE(
    pm::serve::Journal*, const pm::serve::JournalRecord&);
void __wrap__ZN8provmark5serve7Journal6appendERKNS0_13JournalRecordE(
    pm::serve::Journal* self, const pm::serve::JournalRecord& record) {
  Scope span("serve.journal.append");
  // The bytes the record occupies in journal.log (line + newline).
  span.set_count(static_cast<double>(pm::serve::format_record(record).size() + 1));
  __real__ZN8provmark5serve7Journal6appendERKNS0_13JournalRecordE(self, record);
}

// serve::Journal::checkpoint
void __real__ZN8provmark5serve7Journal10checkpointERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEm(
    pm::serve::Journal*, const std::string&, std::uint64_t);
void __wrap__ZN8provmark5serve7Journal10checkpointERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEm(
    pm::serve::Journal* self, const std::string& program, std::uint64_t seq) {
  Scope span("serve.checkpoint");
  span.set_count(static_cast<double>(program.size()));
  __real__ZN8provmark5serve7Journal10checkpointERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEm(
      self, program, seq);
}

// serve::Session::apply
bool __real__ZN8provmark5serve7Session5applyERKNS0_13JournalRecordEPKSt6atomicIbE(
    pm::serve::Session*, const pm::serve::JournalRecord&,
    const std::atomic<bool>*);
bool __wrap__ZN8provmark5serve7Session5applyERKNS0_13JournalRecordEPKSt6atomicIbE(
    pm::serve::Session* self, const pm::serve::JournalRecord& record,
    const std::atomic<bool>* cancel) {
  const char* name = "serve.session.apply.fact";
  if (record.kind == pm::serve::EventKind::Rule) {
    name = "serve.session.apply.rule";
  } else if (record.kind == pm::serve::EventKind::Run) {
    name = "serve.session.apply.run";
  }
  Scope span(name);
  return __real__ZN8provmark5serve7Session5applyERKNS0_13JournalRecordEPKSt6atomicIbE(
      self, record, cancel);
}

// serve::Session::query — the Datalog lookup behind a `query` request
std::string
__real__ZN8provmark5serve7Session5queryERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    pm::serve::Session*, const std::string&);
std::string
__wrap__ZN8provmark5serve7Session5queryERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    pm::serve::Session* self, const std::string& pattern) {
  Scope span("datalog.query");
  return __real__ZN8provmark5serve7Session5queryERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      self, pattern);
}

}  // extern "C"
#endif  // PROVBENCH_TRACED
