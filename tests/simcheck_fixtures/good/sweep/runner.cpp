// known-good: threads are legal under a sweep/ directory, which fans
// independent simulations (each with its own engine) out over workers.
#include <mutex>
#include <thread>
#include <vector>

namespace fixgood {

void run_points(int n, std::vector<int>& out) {
  std::mutex m;
  std::vector<std::thread> workers;
  for (int i = 0; i < n; ++i) {
    workers.emplace_back([&out, &m, i] {
      std::lock_guard<std::mutex> lock(m);
      out.push_back(i);
    });
  }
  for (auto& w : workers) w.join();
}

}  // namespace fixgood
