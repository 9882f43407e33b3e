// Closed and open load loops of the end-to-end benchmark, plus its
// traced/untraced request wrapper and file helpers.
#ifndef PERFBENCH_LOOPS_H_
#define PERFBENCH_LOOPS_H_

#include <sys/resource.h>

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace perfbench {

/// Command-line options every workload receives.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // absolute scratch directory inside the checkout
};

/// Deterministic 64-bit mix (SplitMix64 finalizer): op i of a seeded
/// stream draws its parameters from Mix(seed, i).
inline uint64_t Mix(uint64_t seed, uint64_t i) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from a mixed word.
inline double Unit(uint64_t word) {
  return static_cast<double>(word >> 11) * (1.0 / 9007199254740992.0);
}

inline double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

inline uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

inline void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

/// Sends requests to the server, opening a "bench.request:<kind>" span
/// around the Handle call when a tracer is attached.
class Client {
 public:
  Client(ApiServer* server, Tracer* tracer) : server_(server), tracer_(tracer) {}

  HttpResponse Send(const std::string& kind, const HttpRequest& request,
                    double* ms) {
    SpanId span = tracer_ ? tracer_->StartSpan("bench.request:" + kind) : 0;
    Clock::time_point start = Clock::now();
    HttpResponse response = server_->Handle(request);
    if (ms != nullptr) *ms = MsSince(start);
    if (tracer_ != nullptr) tracer_->EndSpan(span);
    if (tracer_ != nullptr) response_bytes_.Add(response.body.size());
    return response;
  }
  HttpResponse Get(const std::string& kind, const std::string& url,
                   double* ms = nullptr) {
    return Send(kind, HttpRequest::Get(url), ms);
  }
  HttpResponse Post(const std::string& kind, const std::string& url,
                    std::string body, double* ms = nullptr) {
    return Send(kind, HttpRequest::Post(url, std::move(body)), ms);
  }

  /// Runs `fn` inside a request span of `kind` (for the public function
  /// a route calls, when the route itself cannot take a tracer).
  template <typename F>
  auto Wrap(const std::string& kind, F&& fn, double* ms) {
    SpanId span = tracer_ ? tracer_->StartSpan("bench.request:" + kind) : 0;
    Clock::time_point start = Clock::now();
    auto result = fn();
    if (ms != nullptr) *ms = MsSince(start);
    if (tracer_ != nullptr) tracer_->EndSpan(span);
    return result;
  }

  Tracer* tracer() const { return tracer_; }
  const Samples& response_bytes() const { return response_bytes_; }

 private:
  ApiServer* server_;
  Tracer* tracer_;
  Samples response_bytes_;
};

/// Completion times of a loop's operations. MedianRate() splits them
/// into consecutive chunks and reports the median chunk rate, so outside
/// load during part of a run (hypervisor steal on a shared host) moves
/// it less than completed / elapsed would.
class Completions {
 public:
  void Mark() {
    std::lock_guard<std::mutex> lock(mu_);
    times_.push_back(Clock::now());
  }
  double MedianRate(size_t chunks = 10) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Clock::time_point> times = times_;
    std::sort(times.begin(), times.end());
    size_t per_chunk = times.size() / chunks;
    if (per_chunk < 2) return 0.0;
    Samples rates;
    for (size_t c = 0; c < chunks; ++c) {
      size_t first = c * per_chunk;
      size_t last = first + per_chunk - 1;
      double seconds = MsBetween(times[first], times[last]) / 1000.0;
      if (seconds > 0) rates.Add((per_chunk - 1) / seconds);
    }
    return rates.Median();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Clock::time_point> times_;
};

/// Closed loop: `clients` threads each issue op(client, i) back to back
/// until `seconds` elapse. Returns the number of ops completed; each
/// completion is marked in `completions` when given.
inline int64_t ClosedLoop(int clients, double seconds,
                          const std::function<void(int, int64_t)>& op,
                          Completions* completions) {
  std::atomic<int64_t> done{0};
  Clock::time_point deadline =
      Clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int64_t i = 0; Clock::now() < deadline; ++i) {
        op(c, i);
        ++done;
        if (completions != nullptr) completions->Mark();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return done.load();
}

/// Open loop: a generator makes op i due at start + i / rate and hands
/// it to at most `senders` sender threads. Latency runs from the due
/// time, so a stall also delays the requests queued behind it; the
/// generator's own lateness is recorded separately. Generation stops
/// after `seconds`; queued ops still complete.
inline void OpenLoop(double rate, double seconds, int senders,
                     const std::function<void(int64_t)>& op,
                     Samples* latency_ms, Samples* lateness_ms) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<int64_t, Clock::time_point>> queue;
  bool done = false;
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int s = 0; s < senders; ++s) {
    threads.emplace_back([&] {
      while (true) {
        std::pair<int64_t, Clock::time_point> item;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          item = queue.front();
          queue.pop_front();
        }
        op(item.first);
        latency_ms->Add(MsSince(item.second),
                        MsBetween(start, item.second) / 1000.0);
      }
    });
  }
  int64_t total = static_cast<int64_t>(rate * seconds);
  for (int64_t i = 0; i < total; ++i) {
    Clock::time_point due =
        start + std::chrono::microseconds(
                    static_cast<int64_t>(static_cast<double>(i) * 1e6 / rate));
    std::this_thread::sleep_until(due);
    lateness_ms->Add(MsSince(due));
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.emplace_back(i, due);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
}

/// Fetches the Chrome trace of a finished POST .../run (the route traces
/// every run internally) by the envelope's trace_id.
inline std::string FetchRunTrace(ApiServer* server, const JsonValue& envelope) {
  const JsonValue* id = envelope.Find("trace_id");
  if (id == nullptr) return "";
  HttpResponse response =
      server->Get("/api/v1/trace/" + id->string_value());
  return response.status == 200 ? response.body : "";
}

}  // namespace perfbench

#endif  // PERFBENCH_LOOPS_H_
