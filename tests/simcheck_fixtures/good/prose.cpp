// known-good: banned names inside comments and string literals never
// fire. This comment names std::thread, std::chrono::steady_clock, rand(),
// printf("x") and std::cout on purpose.
#include <string>

namespace fixgood {

/* A block comment naming std::mutex and gettimeofday() is silent too. */
const char* banned_names() {
  return "std::thread std::random_device time(nullptr) std::cout puts(";
}

std::string more_banned_names() {
  return std::string("std::atomic<int> srand(1) fprintf(") + '(';
}

}  // namespace fixgood
