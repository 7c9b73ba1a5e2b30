// gfair-lint-fixture: src/common/example.cc
// Seeded violations for the raw-mutex rule: the tree is single-threaded by
// design, so every lock, condition variable and thread spawn is banned
// everywhere in src/, bench/ and tools/ — src/common/ included.
#include <mutex>  // EXPECT-LINT: raw-mutex
#include <thread>  // EXPECT-LINT: raw-mutex

namespace gfair::common {

void Example() {
  std::mutex raw;  // EXPECT-LINT: raw-mutex
  std::lock_guard<std::mutex> guard(raw);  // EXPECT-LINT: raw-mutex
  std::unique_lock<std::mutex> lock(raw);  // EXPECT-LINT: raw-mutex
  std::condition_variable raw_cv;  // EXPECT-LINT: raw-mutex
  std::shared_lock<std::shared_mutex> reader(rw);  // EXPECT-LINT: raw-mutex

  // Thread spawns (<thread> itself is flagged above): a C++20 jthread, a
  // std::async task and the raw POSIX call all fan work out the same way.
  std::jthread worker([] {});  // EXPECT-LINT: raw-mutex
  auto task = std::async([] { return 1; });  // EXPECT-LINT: raw-mutex
  pthread_create(&tid, nullptr, Body, nullptr);  // EXPECT-LINT: raw-mutex

  // Case-sensitive whole words: identifiers that merely contain a banned
  // word (thread_count, Mutex, async_total) never fire.
  int thread_count = 1;
  int async_total = thread_count;
  (void)async_total;

  // Prose and strings never fire: the stripper blanks "std::mutex" here.
  const char* label = "std::mutex and a worker thread";
  (void)label;

  std::scoped_lock both(raw, raw);  // gfair-lint: allow(raw-mutex) -- models a parallel path that has shown its measured win
}

}  // namespace gfair::common
