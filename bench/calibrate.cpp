// Calibration report: the paper ledger's printer. Each headline
// micro-benchmark row of src/paper/ledger.cpp with what the paper states
// (a value, or a bound), ours, the difference, the band
// tests/calibration_test.cpp asserts ("(a, b)" excludes its ends, "[a, b]"
// includes them) and whether ours lies inside it. Run after any model
// change.
#include <cstdio>
#include <string>

#include "paper/ledger.hpp"
#include "util/table.hpp"

using namespace mns;

namespace {

std::string stated(const paper::MicroRow& row) {
  const char* prefix = row.stated == paper::Stated::kBelow   ? "<"
                       : row.stated == paper::Stated::kAbove ? ">"
                                                             : "";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%g", prefix, row.paper);
  return buf;
}

std::string band(const paper::MicroRow& row) {
  const bool closed = row.band.form == paper::Band::Form::kAbs;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%c%.4g, %.4g%c", closed ? '[' : '(',
                row.band.lo(row.paper), row.band.hi(row.paper),
                closed ? ']' : ')');
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "error: calibrate takes no arguments, got '%s'\n",
                 argv[1]);
    return 2;
  }
  const char* format = "%-14s %-27s %-4s %3s %-4s %6s %8s %7s  %-15s %-6s %s\n";
  std::printf(format, "row", "figure", "net", "x", "unit", "paper", "ours",
              "delta", "band", "inside", "kind");
  for (const paper::MicroRow& row : paper::micro()) {
    const double ours = row.measure(row.net, row.x);
    char ours_text[32];
    char delta[32];
    std::snprintf(ours_text, sizeof ours_text, "%.2f", ours);
    std::snprintf(delta, sizeof delta, "%+.1f%%",
                  (ours - row.paper) / row.paper * 100.0);
    std::printf(format, row.id, row.figure, cluster::net_name(row.net),
                util::size_label(row.x).c_str(), row.unit,
                stated(row).c_str(), ours_text, delta, band(row).c_str(),
                row.band.contains(ours, row.paper) ? "yes" : "NO",
                row.kind == paper::Kind::kTarget ? "target" : "deviation");
  }
  return 0;
}
