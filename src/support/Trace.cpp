//===- support/Trace.cpp --------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"

#include <atomic>

using namespace g80;

//===--- Tracer ---------------------------------------------------------------//

Expected<Tracer> Tracer::toFile(const std::string &Path) {
  Tracer T;
  T.Epoch = std::chrono::steady_clock::now();
  T.OS.open(Path, std::ios::trunc);
  if (!T.OS)
    return makeDiag(ErrorCode::JournalError, Stage::Parse,
                    "cannot open trace file '" + Path + "' for writing");
  T.OS << "{\"type\":\"meta\",\"g80trace\":1,\"clock\":\"steady_us\"}\n";
  return T;
}

uint64_t Tracer::nowUs() const {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - Epoch)
                      .count());
}

unsigned Tracer::threadId() {
  // Caller holds M.
  auto [It, Inserted] =
      ThreadIds.emplace(std::this_thread::get_id(), unsigned(ThreadIds.size()));
  (void)Inserted;
  return It->second;
}

void Tracer::recordSpan(std::string_view Name, uint64_t ConfigIndex, int Depth,
                        uint64_t StartUs, uint64_t DurUs) {
  std::lock_guard<std::mutex> L(*M);
  ++Spans;
  if (!OS.is_open())
    return;
  OS << "{\"type\":\"span\",\"name\":\"" << jsonEscape(Name) << "\"";
  if (ConfigIndex != NoConfig)
    OS << ",\"idx\":" << ConfigIndex;
  OS << ",\"tid\":" << threadId() << ",\"depth\":" << Depth
     << ",\"start_us\":" << StartUs << ",\"dur_us\":" << DurUs << "}\n";
}

void Tracer::addCounter(std::string_view Name, uint64_t Delta) {
  std::lock_guard<std::mutex> L(*M);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    Counters.emplace(std::string(Name), Delta);
  else
    It->second += Delta;
}

uint64_t Tracer::counterValue(std::string_view Name) const {
  std::lock_guard<std::mutex> L(*M);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

uint64_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> L(*M);
  return Spans;
}

void Tracer::close() {
  if (!M) // Moved-from shell: nothing to flush.
    return;
  std::lock_guard<std::mutex> L(*M);
  if (!OS.is_open())
    return;
  for (const auto &[Name, Value] : Counters)
    OS << "{\"type\":\"counter\",\"name\":\"" << jsonEscape(Name)
       << "\",\"value\":" << Value << "}\n";
  OS.flush();
  OS.close();
}

//===--- Active tracer and span RAII ------------------------------------------//

namespace {

std::atomic<Tracer *> ActiveTracer{nullptr};

/// Per-thread span nesting level, for the "depth" field.
thread_local int SpanDepth = 0;

} // namespace

Tracer *g80::activeTracer() {
  return ActiveTracer.load(std::memory_order_acquire);
}

ScopedTracer::ScopedTracer(Tracer *T) {
  Prev = ActiveTracer.exchange(T, std::memory_order_acq_rel);
}

ScopedTracer::~ScopedTracer() {
  ActiveTracer.store(Prev, std::memory_order_release);
}

TraceSpan::TraceSpan(const char *Name, uint64_t ConfigIndex)
    : T(activeTracer()), Name(Name), Idx(ConfigIndex) {
  if (!T)
    return;
  Depth = ++SpanDepth;
  StartUs = T->nowUs();
}

TraceSpan::~TraceSpan() {
  if (!T)
    return;
  uint64_t EndUs = T->nowUs();
  T->recordSpan(Name, Idx, Depth, StartUs, EndUs - StartUs);
  --SpanDepth;
}

void g80::traceCount(std::string_view Name, uint64_t Delta) {
  if (Tracer *T = activeTracer())
    T->addCounter(Name, Delta);
}
