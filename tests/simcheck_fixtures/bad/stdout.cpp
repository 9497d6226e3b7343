// known-bad: printing from library code. Libraries return data; only
// bench/, examples/ and tools/ print.
#include <cstdio>
#include <iostream>

namespace fixbad {

void report(int delivered) {
  std::cout << delivered << '\n';  // fires: stdout
  std::printf("%d\n", delivered);  // fires: stdout
  std::fprintf(stderr, "%d\n", delivered);  // fires: stdout
  puts("done");  // fires: stdout
}

}  // namespace fixbad
