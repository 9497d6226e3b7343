// known-good: where a suppression applies. An allow covers its own line
// and the next code line below it, with comment-only lines in between
// skipped, and an #include line counts as code.
// simcheck-allow: threading (the allow above an include covers it)
#include <thread>
#include <atomic>  // simcheck-allow: threading (this line and the next)
#include <mutex>
#include <cstdio>

namespace fixgood {

void log_line(const char* s) {
  std::puts(s);  // simcheck-allow: stdout
  // simcheck-allow: stdout
  // (an explanation may sit between the allow and the line it covers)
  std::printf("%s\n", s);
}

}  // namespace fixgood
