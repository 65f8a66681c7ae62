// Clean: the elastic membership comm worker (the rendezvous watchdog of
// src/comm/membership.cpp) spawns one std::thread per coordinator. The
// spawn passes thread-spawn by path with no suppression: src/comm/
// implements the comm layer (THREAD_LAYER in checks.py).
#include <condition_variable>
#include <mutex>
#include <thread>

class WatchdogOwner {
 public:
  WatchdogOwner() {
    watchdog_ = std::thread([this] { loop(); });
  }
  ~WatchdogOwner() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    watchdog_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return shutdown_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  std::thread watchdog_;
};
