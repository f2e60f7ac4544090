// sand_stat: pretty-prints a SAND metrics snapshot.
//
// Input is the JSON produced by the obs registry — read from a file given
// as argv[1], or stdin when absent / "-". Capture a snapshot either by
// reading the "/.sand/metrics" view through SandFs, or with the benches'
// --metrics-out flag:
//
//   build/bench/bench_fig11_single_task --metrics-out /tmp/m.json
//   build/tools/sand_stat /tmp/m.json
//
// With --remote ENDPOINT the snapshot is fetched live from a running
// sand_server over its socket instead (ENDPOINT is a unix socket path or
// host:port); the control view read is picked by the mode: /.sand/metrics
// for the default and --jobs/--tenants tables, /.sand/health for --health.
//
//   build/tools/sand_stat --remote /tmp/sand.sock --tenants
//
// Output: counters and gauges aligned and sorted, histogram quantiles in
// human time units (the convention is that *_ns histograms hold
// nanoseconds), plus derived ratios (cache hit rate, decode
// amplification) when their inputs are present.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "src/net/sand_client.h"

namespace {

// --- minimal JSON reader for the registry's dump shape -----------------------
//
// The snapshot is two levels of objects with string keys and numeric
// leaves. This parser handles exactly that (plus nested objects), which
// keeps the tool dependency-free.

struct Parser {
  const std::string& text;
  size_t pos = 0;

  explicit Parser(const std::string& t) : text(t) {}

  void SkipWs() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  std::optional<std::string> ParseString() {
    SkipWs();
    if (pos >= text.size() || text[pos] != '"') {
      return std::nullopt;
    }
    ++pos;
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) {
        ++pos;
      }
      out.push_back(text[pos++]);
    }
    if (pos >= text.size()) {
      return std::nullopt;
    }
    ++pos;  // closing quote
    return out;
  }

  std::optional<double> ParseNumber() {
    SkipWs();
    size_t start = pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '-' ||
            text[pos] == '+' || text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
    }
    if (pos == start) {
      return std::nullopt;
    }
    try {
      return std::stod(text.substr(start, pos - start));
    } catch (...) {
      return std::nullopt;
    }
  }
};

// name -> value for flat objects; histograms become "name.field" entries.
using FlatMetrics = std::map<std::string, double>;
// name -> value for string leaves (health status, violation check names).
using FlatStrings = std::map<std::string, std::string>;

bool ParseValueInto(Parser& p, const std::string& prefix, FlatMetrics& out,
                    FlatStrings& strings);

bool ParseObjectInto(Parser& p, const std::string& prefix, FlatMetrics& out,
                     FlatStrings& strings) {
  if (!p.Consume('{')) {
    return false;
  }
  if (p.Consume('}')) {
    return true;
  }
  while (true) {
    auto key = p.ParseString();
    if (!key || !p.Consume(':')) {
      return false;
    }
    std::string full = prefix.empty() ? *key : prefix + "." + *key;
    if (!ParseValueInto(p, full, out, strings)) {
      return false;
    }
    if (p.Consume('}')) {
      return true;
    }
    if (!p.Consume(',')) {
      return false;
    }
  }
}

bool ParseArrayInto(Parser& p, const std::string& prefix, FlatMetrics& out,
                    FlatStrings& strings) {
  if (!p.Consume('[')) {
    return false;
  }
  if (p.Consume(']')) {
    return true;
  }
  size_t index = 0;
  while (true) {
    if (!ParseValueInto(p, prefix + "." + std::to_string(index++), out, strings)) {
      return false;
    }
    if (p.Consume(']')) {
      return true;
    }
    if (!p.Consume(',')) {
      return false;
    }
  }
}

// Tolerant by design: a metrics view may mix numeric leaves with strings,
// booleans, null, and arrays (e.g. /.sand/health). Unknown leaf shapes are
// skipped rather than failing the whole snapshot.
bool ParseValueInto(Parser& p, const std::string& prefix, FlatMetrics& out,
                    FlatStrings& strings) {
  p.SkipWs();
  if (p.pos >= p.text.size()) {
    return false;
  }
  char c = p.text[p.pos];
  if (c == '{') {
    return ParseObjectInto(p, prefix, out, strings);
  }
  if (c == '[') {
    return ParseArrayInto(p, prefix, out, strings);
  }
  if (c == '"') {
    auto s = p.ParseString();
    if (!s) {
      return false;
    }
    strings[prefix] = *s;
    return true;
  }
  if (p.text.compare(p.pos, 4, "true") == 0) {
    p.pos += 4;
    out[prefix] = 1.0;
    return true;
  }
  if (p.text.compare(p.pos, 5, "false") == 0) {
    p.pos += 5;
    out[prefix] = 0.0;
    return true;
  }
  if (p.text.compare(p.pos, 4, "null") == 0) {
    p.pos += 4;
    return true;
  }
  auto value = p.ParseNumber();
  if (!value) {
    return false;
  }
  out[prefix] = *value;
  return true;
}

// --- formatting --------------------------------------------------------------

std::string HumanTime(double ns) {
  char buffer[64];
  if (ns >= 1e9) {
    std::snprintf(buffer, sizeof(buffer), "%.2f s", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.2f ms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buffer, sizeof(buffer), "%.2f us", ns / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0f ns", ns);
  }
  return buffer;
}

std::string HumanCount(double v) {
  char buffer[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f", v);
  }
  return buffer;
}

double GetOr(const FlatMetrics& m, const std::string& key, double fallback = 0.0) {
  auto it = m.find(key);
  return it == m.end() ? fallback : it->second;
}

bool Has(const FlatMetrics& m, const std::string& key) { return m.count(key) > 0; }

void PrintRatio(const char* label, double numerator, double denominator, const char* unit) {
  if (denominator <= 0) {
    return;
  }
  std::printf("  %-38s %.2f%s\n", label, numerator / denominator, unit);
}

// --- per-job attribution table ("--jobs") ------------------------------------
//
// Groups the registry's "sand.job.<tag>.<metric>" namespace (see
// src/obs/attribution.h) back into one row per job. Works on a full
// registry snapshot; jobs with no recorded activity simply print zeros.

int PrintJobs(const FlatMetrics& flat) {
  // job tag -> metric leaf -> value. Tag is everything between "sand.job."
  // and the final metric name; histograms contribute "<name>.<field>".
  std::map<std::string, FlatMetrics> jobs;
  const std::string kCounterPrefix = "counters.sand.job.";
  const std::string kHistPrefix = "histograms.sand.job.";
  for (const auto& [key, value] : flat) {
    std::string rest;
    bool is_hist = false;
    if (key.rfind(kCounterPrefix, 0) == 0) {
      rest = key.substr(kCounterPrefix.size());
    } else if (key.rfind(kHistPrefix, 0) == 0) {
      rest = key.substr(kHistPrefix.size());
      is_hist = true;
    } else {
      continue;
    }
    // Counters: "<tag>.<metric>" where the metric has no dots. Histograms:
    // "<tag>.<metric>.<field>". Job tags themselves may contain dots, so
    // split from the right.
    size_t cut = rest.rfind('.');
    if (is_hist && cut != std::string::npos) {
      cut = rest.rfind('.', cut - 1);
    }
    if (cut == std::string::npos || cut == 0) {
      continue;
    }
    jobs[rest.substr(0, cut)][rest.substr(cut + 1)] = value;
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "sand_stat: no sand.job.* metrics in snapshot\n");
    return 1;
  }
  std::printf("%-24s %10s %12s %8s %8s %12s\n", "job", "reads", "bytes", "batches", "hits",
              "wait_p99");
  for (const auto& [tag, m] : jobs) {
    std::printf("%-24s %10s %12s %8s %8s %12s\n", tag.c_str(),
                HumanCount(GetOr(m, "reads")).c_str(),
                HumanCount(GetOr(m, "bytes_read")).c_str(),
                HumanCount(GetOr(m, "batches_served")).c_str(),
                HumanCount(GetOr(m, "cache_hits")).c_str(),
                HumanTime(GetOr(m, "materialize_wait_ns.p99")).c_str());
  }
  return 0;
}

// --- per-tenant attribution table ("--tenants") ------------------------------
//
// Same regrouping as PrintJobs but over the "sand.tenant.<tag>.*"
// namespace (src/obs/attribution.h): one row per socket tenant with its
// traffic, refusals, and budget residency.

int PrintTenants(const FlatMetrics& flat) {
  std::map<std::string, FlatMetrics> tenants;
  const std::string kPrefixes[] = {"counters.sand.tenant.", "gauges.sand.tenant.",
                                   "histograms.sand.tenant."};
  for (const auto& [key, value] : flat) {
    for (const std::string& prefix : kPrefixes) {
      if (key.rfind(prefix, 0) != 0) {
        continue;
      }
      std::string rest = key.substr(prefix.size());
      size_t cut = rest.rfind('.');
      if (prefix[0] == 'h' && cut != std::string::npos && cut != 0) {
        cut = rest.rfind('.', cut - 1);
      }
      if (cut != std::string::npos && cut != 0) {
        tenants[rest.substr(0, cut)][rest.substr(cut + 1)] = value;
      }
      break;
    }
  }
  if (tenants.empty()) {
    std::fprintf(stderr, "sand_stat: no sand.tenant.* metrics in snapshot\n");
    return 1;
  }
  std::printf("%-16s %9s %10s %9s %12s %9s %12s %12s\n", "tenant", "sessions",
              "requests", "rejected", "bytes", "inflight", "resident", "wait_p99");
  for (const auto& [tag, m] : tenants) {
    std::printf("%-16s %9s %10s %9s %12s %9s %12s %12s\n", tag.c_str(),
                HumanCount(GetOr(m, "sessions")).c_str(),
                HumanCount(GetOr(m, "requests")).c_str(),
                HumanCount(GetOr(m, "rejected")).c_str(),
                HumanCount(GetOr(m, "bytes_read")).c_str(),
                HumanCount(GetOr(m, "inflight")).c_str(),
                HumanCount(GetOr(m, "resident_bytes")).c_str(),
                HumanTime(GetOr(m, "materialize_wait_ns.p99")).c_str());
  }
  return 0;
}

// --- remote snapshot ("--remote") --------------------------------------------
//
// Dials a sand_server as a read-only tenant and fetches one control view.
// The endpoint is a unix socket path (contains '/') or host:port.

std::optional<std::string> FetchRemote(const std::string& endpoint,
                                       const std::string& tenant,
                                       const std::string& view) {
  sand::net::SandClient::Options options;
  if (endpoint.find('/') != std::string::npos) {
    options.unix_path = endpoint;
  } else {
    size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      options.port = std::atoi(endpoint.c_str());
    } else {
      if (colon > 0) {
        options.host = endpoint.substr(0, colon);
      }
      options.port = std::atoi(endpoint.c_str() + colon + 1);
    }
  }
  options.tenant = tenant;
  auto client = sand::net::SandClient::Connect(options);
  if (!client.ok()) {
    std::fprintf(stderr, "sand_stat: connect %s: %s\n", endpoint.c_str(),
                 client.status().ToString().c_str());
    return std::nullopt;
  }
  // On stderr so stdout stays a clean snapshot.
  std::fprintf(stderr, "sand_stat: %s speaks protocol v%u\n", endpoint.c_str(),
               sand::net::kProtocolVersion);
  auto fd = (*client)->Open(view);
  if (!fd.ok()) {
    std::fprintf(stderr, "sand_stat: open %s: %s\n", view.c_str(),
                 fd.status().ToString().c_str());
    return std::nullopt;
  }
  auto body = (*client)->ReadAllShared(*fd);
  (void)(*client)->Close(*fd);
  if (!body.ok()) {
    std::fprintf(stderr, "sand_stat: read %s: %s\n", view.c_str(),
                 body.status().ToString().c_str());
    return std::nullopt;
  }
  return std::string((*body)->begin(), (*body)->end());
}

// --- health verdict ("--health") ---------------------------------------------
//
// Renders the /.sand/health view: overall status plus one line per
// violation with observed value vs threshold.

int PrintHealth(const FlatMetrics& flat, const FlatStrings& strings) {
  auto status = strings.find("status");
  if (status == strings.end()) {
    std::fprintf(stderr, "sand_stat: input is not a health snapshot\n");
    return 1;
  }
  std::printf("status: %s  (checks evaluated: %s)\n", status->second.c_str(),
              HumanCount(GetOr(flat, "checks_evaluated")).c_str());
  for (size_t i = 0;; ++i) {
    std::string base = "violations." + std::to_string(i);
    auto check = strings.find(base + ".check");
    if (check == strings.end()) {
      break;
    }
    bool is_time = check->second.size() > 3 &&
                   check->second.compare(check->second.size() - 3, 3, "_ns") == 0;
    double value = GetOr(flat, base + ".value");
    double threshold = GetOr(flat, base + ".threshold");
    std::printf("  VIOLATION %-28s value %-14s threshold %s\n", check->second.c_str(),
                (is_time ? HumanTime(value) : HumanCount(value)).c_str(),
                (is_time ? HumanTime(threshold) : HumanCount(threshold)).c_str());
  }
  return status->second == "ok" ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kMetrics, kJobs, kTenants, kHealth, kCat } mode = Mode::kMetrics;
  std::string path;
  std::string remote;
  std::string tenant = "sand_stat";
  std::string cat_view;
  bool path_set = false;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--jobs") {
      mode = Mode::kJobs;
    } else if (arg == "--tenants") {
      mode = Mode::kTenants;
    } else if (arg == "--health") {
      mode = Mode::kHealth;
    } else if (arg == "--cat" && i + 1 < argc) {
      mode = Mode::kCat;
      cat_view = argv[++i];
    } else if (arg == "--remote" && i + 1 < argc) {
      remote = argv[++i];
    } else if (arg == "--tenant" && i + 1 < argc) {
      tenant = argv[++i];
    } else if (!path_set) {
      path = arg;
      path_set = true;
    } else {
      usage_error = true;
    }
  }
  if (usage_error || (path_set && !remote.empty()) ||
      (mode == Mode::kCat && remote.empty())) {
    std::fprintf(stderr,
                 "usage: %s [--jobs|--tenants|--health] [snapshot.json|-]\n"
                 "       %s [--jobs|--tenants|--health] --remote ENDPOINT "
                 "[--tenant TAG]\n"
                 "       %s --cat /.sand/VIEW --remote ENDPOINT [--tenant TAG]\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }

  // Raw control-view dump: fetch and print, no parsing. The escape hatch
  // for views whose shape the tables don't know (e.g. /.sand/cluster).
  if (mode == Mode::kCat) {
    auto body = FetchRemote(remote, tenant, cat_view);
    if (!body) {
      return 1;
    }
    std::fwrite(body->data(), 1, body->size(), stdout);
    return 0;
  }

  std::string input;
  if (!remote.empty()) {
    std::string view = mode == Mode::kHealth ? "/.sand/health" : "/.sand/metrics";
    auto body = FetchRemote(remote, tenant, view);
    if (!body) {
      return 1;
    }
    input = *body;
  } else if (path_set && path != "-") {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "sand_stat: cannot open %s\n", path.c_str());
      return 1;
    }
    char chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      input.append(chunk, n);
    }
    std::fclose(f);
  } else {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    input = buffer.str();
  }

  Parser parser(input);
  FlatMetrics flat;
  FlatStrings strings;
  if (!ParseObjectInto(parser, "", flat, strings) || (flat.empty() && strings.empty())) {
    std::fprintf(stderr, "sand_stat: input is not a metrics snapshot\n");
    return 1;
  }
  if (mode == Mode::kJobs) {
    return PrintJobs(flat);
  }
  if (mode == Mode::kTenants) {
    return PrintTenants(flat);
  }
  if (mode == Mode::kHealth) {
    return PrintHealth(flat, strings);
  }

  // The registry nests everything under counters/gauges/histograms.
  std::printf("== counters ==\n");
  for (const auto& [key, value] : flat) {
    if (key.rfind("counters.", 0) == 0) {
      std::printf("  %-44s %s\n", key.substr(9).c_str(), HumanCount(value).c_str());
    }
  }
  std::printf("== gauges ==\n");
  for (const auto& [key, value] : flat) {
    if (key.rfind("gauges.", 0) == 0) {
      std::printf("  %-44s %s\n", key.substr(7).c_str(), HumanCount(value).c_str());
    }
  }

  // Histograms: group the flattened fields back per histogram name.
  std::printf("== histograms ==\n");
  std::map<std::string, FlatMetrics> hists;
  for (const auto& [key, value] : flat) {
    if (key.rfind("histograms.", 0) == 0) {
      std::string rest = key.substr(11);
      size_t dot = rest.rfind('.');
      if (dot != std::string::npos) {
        hists[rest.substr(0, dot)][rest.substr(dot + 1)] = value;
      }
    }
  }
  for (const auto& [name, fields] : hists) {
    bool is_time = name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
    auto fmt = [&](const char* field) {
      double v = GetOr(fields, field);
      return is_time ? HumanTime(v) : HumanCount(v);
    };
    std::printf("  %s\n", name.c_str());
    std::printf("    count %-12s mean %-12s p50 %-12s p95 %-12s p99 %-12s max %s\n",
                HumanCount(GetOr(fields, "count")).c_str(), fmt("mean").c_str(),
                fmt("p50").c_str(), fmt("p95").c_str(), fmt("p99").c_str(),
                fmt("max").c_str());
  }

  // Derived ratios, printed only when their inputs were recorded.
  std::printf("== derived ==\n");
  double mem_hits = GetOr(flat, "counters.sand.cache.memory.hits");
  double disk_hits = GetOr(flat, "counters.sand.cache.disk.hits");
  double misses = GetOr(flat, "counters.sand.cache.misses");
  if (mem_hits + disk_hits + misses > 0) {
    PrintRatio("cache hit rate", mem_hits + disk_hits, mem_hits + disk_hits + misses, "");
    PrintRatio("memory-tier share of hits", mem_hits, mem_hits + disk_hits, "");
  }
  if (Has(flat, "counters.sand.decode.frames_decoded") &&
      GetOr(flat, "counters.sand.decode.frames_requested") > 0) {
    // Frames actually decoded per frame requested: GOP pre-roll makes this
    // > 1 on seek-heavy access patterns (the paper's decode amplification).
    PrintRatio("decode amplification", GetOr(flat, "counters.sand.decode.frames_decoded"),
               GetOr(flat, "counters.sand.decode.frames_requested"), "x");
  }
  double cc_hits = GetOr(flat, "counters.sand.container_cache.hits");
  double cc_misses = GetOr(flat, "counters.sand.container_cache.misses");
  if (cc_hits + cc_misses > 0) {
    PrintRatio("container cache hit rate", cc_hits, cc_hits + cc_misses, "");
  }
  // Compressed cache tier (DESIGN.md §11): raw bytes per stored byte over
  // everything the codec touched, and what decoding costs each cache hit.
  double enc_raw = GetOr(flat, "counters.sand.compress.encoded_raw_bytes");
  double enc_out = GetOr(flat, "counters.sand.compress.encoded_bytes");
  if (enc_out > 0) {
    PrintRatio("compression ratio", enc_raw, enc_out, "x");
  }
  double compress_hits = GetOr(flat, "counters.sand.compress.hits");
  double decode_ns_sum = GetOr(flat, "histograms.sand.compress.decode_ns.sum");
  if (compress_hits > 0 && decode_ns_sum > 0) {
    std::printf("  %-38s %s\n", "decode overhead per hit",
                HumanTime(decode_ns_sum / compress_hits).c_str());
  }
  return 0;
}
