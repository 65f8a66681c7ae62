// Firing: raw std::thread spawn outside the context/comm layer.
// Expected finding: thread-spawn/raw-thread
#include <thread>

void spawn_worker() {
  std::thread t([] {});
  t.join();
}
