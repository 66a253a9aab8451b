//===- Trace.cpp - In-memory span log for traced runs ---------------------===//
//
// Part of mcsafe, a reproduction of "Safety Checking of Machine Code"
// (Xu, Miller, Reps; PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

void SpanLog::record(const char *Name, uint64_t ReqId, Clock::time_point Start,
                     Clock::time_point End) {
  uint32_t Thread = static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Name, ReqId, Thread, usBetween(Epoch, Start),
                   usBetween(Start, End)});
}

double SpanLog::medianUs(const std::string &Name) const {
  std::vector<double> Durations;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const Span &S : Spans)
      if (Name == S.Name)
        Durations.push_back(S.DurUs);
  }
  return median(std::move(Durations));
}

bool SpanLog::writeChromeJson(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  OS << "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n" : "\n") << "{\"name\":\"" << S.Name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Thread
       << ",\"ts\":" << S.StartUs << ",\"dur\":" << S.DurUs
       << ",\"args\":{\"req\":" << S.ReqId << "}}";
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

} // namespace perfbench
