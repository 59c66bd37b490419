// Golden per-epoch recordings of Experiment runs.
//
// A golden case runs one Experiment and compares every engine-produced
// field of its RunResult against its recorded lines in a fixture file
// under tests/golden/ (one file holds many cases): per-epoch answers,
// contributor counts, per-query and windowed values, frequent-items
// counts, ground truths, byte/energy tallies, adaptation counters, repairs
// and link-layer delivery/retry accounting. Doubles are
// stored as C99 hex floats, so the comparison is bit-exact -- the engine
// must not move in the last ulp. A mismatch names the case, the epoch and
// the field.
//
// Re-recording (only when a change is MEANT to alter results, e.g. a new
// RNG stream): run the test binary with TD_GOLDEN_RECORD=1 in the
// environment; each golden case then rewrites its lines and passes.
// Review the fixture diff like code.
#ifndef TD_TESTS_GOLDEN_H_
#define TD_TESTS_GOLDEN_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/experiment.h"

#ifndef TD_GOLDEN_DIR
#error "TD_GOLDEN_DIR must name the fixture directory (see CMakeLists.txt)"
#endif

namespace td::golden {

inline std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Comma-joins fmt(x) over `xs` (fmt never returns an empty string).
template <typename Range, typename Fmt>
std::string Join(const Range& xs, Fmt fmt) {
  std::string out;
  for (const auto& x : xs) {
    if (!out.empty()) out += ',';
    out += fmt(x);
  }
  return out;
}

inline std::string HexList(const std::vector<double>& v) {
  return Join(v, [](double x) { return Hex(x); });
}

/// One recorded line: a scope ("run", "epoch 3", "query 1") and its
/// field=value pairs in recording order.
struct Line {
  std::string scope;
  std::vector<std::pair<std::string, std::string>> fields;

  void Put(const std::string& name, std::string value) {
    fields.emplace_back(name, std::move(value));
  }
  /// Lists are recorded only when non-empty: an empty-vs-filled mismatch
  /// still shows as a field present on one side only.
  void PutList(const std::string& name, std::string joined) {
    if (!joined.empty()) Put(name, std::move(joined));
  }
};

/// Flattens `r` into recorded lines.
inline std::vector<Line> Record(const RunResult& r) {
  using std::to_string;
  std::vector<Line> lines;
  for (size_t i = 0; i < r.epochs.size(); ++i) {
    const EpochResult& e = r.epochs[i];
    Line l{"epoch " + to_string(i), {}};
    l.Put("value", Hex(e.value));
    l.Put("true_contributing", to_string(e.true_contributing));
    l.Put("reported_contributing", Hex(e.reported_contributing));
    l.PutList("query_values", HexList(e.query_values));
    l.PutList("windowed_values", HexList(e.windowed_values));
    l.PutList("freq_counts", Join(e.freq.counts, [](const auto& kv) {
                return to_string(kv.first) + ':' + Hex(kv.second);
              }));
    if (i < r.truths.size()) l.Put("truth", Hex(r.truths[i]));
    if (i < r.contributing.size()) {
      l.Put("contributing", Hex(r.contributing[i]));
    }
    lines.push_back(std::move(l));
  }

  Line run{"run", {}};
  run.Put("epochs", to_string(r.epochs.size()));
  run.Put("truths", to_string(r.truths.size()));
  run.Put("rms", Hex(r.rms));
  run.Put("energy_bytes", to_string(r.energy.bytes));
  run.Put("energy_transmissions", to_string(r.energy.transmissions));
  run.Put("energy_packets", to_string(r.energy.packets));
  run.Put("bytes_per_epoch", Hex(r.bytes_per_epoch));
  run.Put("header_bytes_per_epoch", Hex(r.header_bytes_per_epoch));
  run.Put("payload_bytes_per_epoch", Hex(r.payload_bytes_per_epoch));
  run.Put("final_delta_size", to_string(r.final_delta_size));
  run.Put("expansions", to_string(r.stats.expansions));
  run.Put("shrinks", to_string(r.stats.shrinks));
  run.Put("decisions", to_string(r.stats.decisions));
  run.Put("topology_repairs", to_string(r.topology_repairs));
  run.Put("delivery_ratio", Hex(r.delivery_ratio));
  run.Put("attempts_per_epoch", Hex(r.attempts_per_epoch));
  run.PutList("retry_histogram",
              Join(r.retry_histogram, [](uint64_t n) { return to_string(n); }));
  run.Put("route_reroutes", to_string(r.route_reroutes));
  run.Put("queries", to_string(r.queries.size()));
  lines.push_back(std::move(run));

  for (size_t q = 0; q < r.queries.size(); ++q) {
    const QuerySeries& s = r.queries[q];
    Line l{"query " + to_string(q), {}};
    l.PutList("estimates", HexList(s.estimates));
    l.Put("rms", Hex(s.rms));
    l.PutList("windowed_estimates", HexList(s.windowed_estimates));
    l.Put("windowed_rms", Hex(s.windowed_rms));
    lines.push_back(std::move(l));
  }
  return lines;
}

/// Fixture line format: "<case>|<scope>|<field>=<value> ...". One
/// fixture file holds many cases; each case owns the lines carrying its
/// name.
inline std::vector<std::string> Format(const std::string& name,
                                       const std::vector<Line>& lines) {
  std::vector<std::string> out;
  for (const Line& l : lines) {
    std::string text = name + '|' + l.scope + '|';
    for (size_t i = 0; i < l.fields.size(); ++i) {
      if (i > 0) text += ' ';
      text += l.fields[i].first + '=' + l.fields[i].second;
    }
    out.push_back(std::move(text));
  }
  return out;
}

inline std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

inline bool IsCaseLine(const std::string& line, const std::string& name) {
  return line.size() > name.size() &&
         line.compare(0, name.size(), name) == 0 && line[name.size()] == '|';
}

/// "<scope>, field <field>" -> value, over the lines of one case.
using Parsed = std::map<std::string, std::string>;

inline Parsed Parse(const std::vector<std::string>& lines,
                    const std::string& name) {
  Parsed out;
  for (const std::string& line : lines) {
    if (!IsCaseLine(line, name)) continue;
    const size_t bar = line.find('|', name.size() + 1);
    if (bar == std::string::npos) continue;
    const std::string scope =
        line.substr(name.size() + 1, bar - name.size() - 1);
    std::istringstream fs(line.substr(bar + 1));
    std::string token;
    while (fs >> token) {
      const size_t eq = token.find('=');
      out[scope + ", field " + token.substr(0, eq)] =
          eq == std::string::npos ? "" : token.substr(eq + 1);
    }
  }
  return out;
}

/// Rewrites case `name` inside fixture `path`, keeping the other cases'
/// lines in place.
inline void RecordCase(const std::string& path, const std::string& name,
                       const std::vector<std::string>& lines) {
  std::vector<std::string> kept;
  for (const std::string& line : ReadLines(path)) {
    if (!IsCaseLine(line, name)) kept.push_back(line);
  }
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write golden fixture " << path;
  for (const std::string& line : kept) out << line << '\n';
  for (const std::string& line : lines) out << line << '\n';
}

/// Compares `r` against case `name` of fixture tests/golden/<file>.txt (or
/// records it there under TD_GOLDEN_RECORD=1). Reports at most a handful
/// of mismatches, each naming the case, the scope (epoch) and the field.
inline void ExpectMatchesGolden(const std::string& file,
                                const std::string& name, const RunResult& r) {
  const std::string path = std::string(TD_GOLDEN_DIR) + "/" + file + ".txt";
  const std::vector<std::string> actual = Format(name, Record(r));
  const char* record = std::getenv("TD_GOLDEN_RECORD");
  if (record != nullptr && std::string(record) == "1") {
    RecordCase(path, name, actual);
    return;
  }
  const Parsed want = Parse(ReadLines(path), name);
  ASSERT_FALSE(want.empty())
      << "golden case " << file << '/' << name << " missing from " << path
      << " (record it with TD_GOLDEN_RECORD=1)";
  const Parsed got = Parse(actual, name);

  auto lookup = [](const Parsed& p, const std::string& key) {
    const auto it = p.find(key);
    return it == p.end() ? std::string("<absent>") : it->second;
  };
  Parsed keys = want;
  keys.insert(got.begin(), got.end());
  constexpr int kMaxReports = 8;
  int reports = 0;
  for (const auto& [key, unused] : keys) {
    const std::string w = lookup(want, key);
    const std::string g = lookup(got, key);
    if (w == g || ++reports > kMaxReports) continue;
    ADD_FAILURE() << "golden case " << file << '/' << name << ", " << key
                  << ": recorded '" << w << "', got '" << g << "'";
  }
  if (reports > kMaxReports) {
    ADD_FAILURE() << "golden case " << file << '/' << name << ": "
                  << (reports - kMaxReports) << " further mismatches";
  }
}

/// Runs `builder` and compares the result against case `name` of fixture
/// `file`.
inline void ExpectRunMatchesGolden(const std::string& file,
                                   const std::string& name,
                                   Experiment::Builder builder) {
  ExpectMatchesGolden(file, name, builder.Run());
}

}  // namespace td::golden

#endif  // TD_TESTS_GOLDEN_H_
