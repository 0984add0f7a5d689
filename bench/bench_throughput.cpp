// Threaded-runtime throughput (supporting infrastructure): blocking
// operations per second through the real-threads front end, single client
// and a writer/reader pair across the interconnection. Wall-clock: each row
// reports the mean real and main-thread CPU time per operation and the
// resulting ops/second (fields as in docs/BENCHMARKS.md).
#include <time.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>

#include "bench_report.h"
#include "bench_util.h"
#include "runtime/runtime.h"
#include "stats/table.h"

namespace {

using namespace cim;

struct Env {
  std::unique_ptr<isc::Federation> fed;
  std::unique_ptr<rt::Runtime> runtime;
  Value next_value = 1;

  Env() {
    bench::FedParams params;
    params.num_systems = 2;
    params.procs_per_system = 2;
    params.intra_delay = sim::microseconds(10);
    params.link_delay = sim::microseconds(50);
    fed = std::make_unique<isc::Federation>(bench::make_config(params));
    runtime = std::make_unique<rt::Runtime>(*fed);
    runtime->start();
  }
  ~Env() { runtime->stop(); }
};

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

struct Timing {
  double real_time_ns = 0;  // per operation
  double cpu_time_ns = 0;   // per operation, calling thread
  double items_per_second = 0;
};

// Run `op` `iterations` times and time the loop as a whole.
template <typename Op>
Timing time_loop(std::uint64_t iterations, Op op) {
  const auto wall0 = std::chrono::steady_clock::now();
  const std::int64_t cpu0 = thread_cpu_ns();
  for (std::uint64_t i = 0; i < iterations; ++i) op();
  const std::int64_t cpu1 = thread_cpu_ns();
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();
  Timing t;
  t.real_time_ns = wall_ns / static_cast<double>(iterations);
  t.cpu_time_ns =
      static_cast<double>(cpu1 - cpu0) / static_cast<double>(iterations);
  t.items_per_second = static_cast<double>(iterations) / (wall_ns / 1e9);
  return t;
}

}  // namespace

int main() {
  bench::JsonReport report("throughput");
  stats::Table table({"row", "iterations", "real ns/op", "cpu ns/op",
                      "ops/s"});
  auto emit = [&](const char* name, std::uint64_t iterations,
                  const Timing& t) {
    report.row(name)
        .field("real_time_ns", t.real_time_ns)
        .field("cpu_time_ns", t.cpu_time_ns)
        .field("iterations", iterations)
        .field("items_per_second", t.items_per_second);
    table.add_row(name, iterations, t.real_time_ns, t.cpu_time_ns,
                  t.items_per_second);
  };

  {
    Env env;
    rt::BlockingClient client(*env.runtime, env.fed->system(0).app(0));
    constexpr std::uint64_t kIters = 5000;
    emit("blocking_write", kIters, time_loop(kIters, [&] {
           client.write(VarId{0}, env.next_value++);
         }));
  }
  {
    Env env;
    rt::BlockingClient client(*env.runtime, env.fed->system(0).app(0));
    client.write(VarId{0}, 1);
    constexpr std::uint64_t kIters = 5000;
    emit("blocking_read", kIters, time_loop(kIters, [&] {
           static_cast<void>(client.read(VarId{0}));
         }));
  }
  {
    Env env;
    rt::BlockingClient writer(*env.runtime, env.fed->system(0).app(0));
    rt::BlockingClient reader(*env.runtime, env.fed->system(1).app(0));
    constexpr std::uint64_t kIters = 300;
    emit("write_read_pingpong", kIters, time_loop(kIters, [&] {
           const Value v = env.next_value++;
           writer.write(VarId{0}, v);
           // Spin (bounded) until the value crosses the interconnection.
           Value got = kInitValue;
           for (int i = 0; i < 1'000'000 && got != v; ++i)
             got = reader.read(VarId{0});
         }));
  }

  std::cout << "Threaded runtime throughput (wall clock)\n";
  table.print(std::cout);
  return 0;
}
