// Self-tests of the benchmark's own helpers: the percentile rule, schedule
// and stream determinism, and the checker's rejections. `fsrbench selftest`
// runs them; run.py runs them before every measurement.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/request.h"
#include "api/service.h"
#include "api/wire.h"
#include "core.h"

namespace fsrbench {

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

std::string render(const std::string& body) {
  fsr::api::AnalysisService service;
  fsr::api::Response response = service.call(fsr::api::wire::parse_request("{" + body + "}"));
  response.id = 0;
  return fsr::api::wire::render_response(response);
}

void replace_once(std::string& text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
}

void test_percentile() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(1001 - i);
  expect(percentile(samples, 0.99) == 990.0, "p99 of 1..1000 is 990 (10 beyond)");
  expect(percentile(samples, 0.50) == 500.0, "p50 of 1..1000 is 500");
  samples.pop_back();
  expect(!percentile(samples, 0.99).has_value(), "p99 of 999 samples is refused");
  expect(percentile(samples, 0.99, 9).has_value(), "a smaller tail rule admits it");
  expect(!percentile({}, 0.5).has_value(), "no percentile of nothing");
  expect(median({3, 1, 2, 10}) == 2.5, "median of an even count");
  std::vector<double> thirds(3000, 1.0);
  for (int i = 0; i < 40; ++i) thirds[1000 + i] = 500;  // one burst
  expect(percentile(thirds, 0.99) == 500.0, "the burst sets the whole-window p99");
  expect(sliced_percentile(thirds, 0.99, 3) == 1.0, "one burst moves one third only");
  expect(!sliced_percentile(thirds, 0.99, 4).has_value(), "750-sample slices refused");
}

void test_schedule() {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<double> a = poisson_schedule(seed, 1000, 2.0);
    const std::vector<double> b = poisson_schedule(seed, 1000, 2.0);
    expect(a == b, "same seed, same schedule");
    expect(a != poisson_schedule(seed + 100, 1000, 2.0), "another seed, another schedule");
    // 2000 expected arrivals; five standard deviations is about 224.
    expect(std::fabs(static_cast<double>(a.size()) - 2000) < 224, "Poisson count near rate*T");
    bool increasing = true;
    for (std::size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
    expect(increasing && !a.empty() && a.back() < 2.0, "offsets increase within the phase");
  }
  for (const ServeWorkload* workload : {&serve_hot(), &serve_cold()}) {
    StreamGenerator first(*workload, 7), second(*workload, 7), other(*workload, 8);
    bool same = true, differs = false;
    for (int i = 0; i < 50; ++i) {
      const std::string body = first.next().body;
      same = same && body == second.next().body;
      differs = differs || body != other.next().body;
    }
    expect(same, "same seed, same request stream");
    expect(differs, "another seed, another request stream");
  }
  const auto bodies = [](std::uint64_t seed) {
    std::vector<std::string> out;
    for (const GenRequest& request : phase_requests(serve_cold(), seed, kOpenPopulation, 200)) {
      out.push_back(request.body);
    }
    return out;
  };
  const std::vector<std::string> seven = bodies(7), other = bodies(8);
  expect(seven == bodies(7), "same seed, same cold requests in the same order");
  expect(seven != other, "another seed, another order");
  std::vector<std::string> sorted_seven = seven, sorted_other = other;
  std::sort(sorted_seven.begin(), sorted_seven.end());
  std::sort(sorted_other.begin(), sorted_other.end());
  expect(sorted_seven == sorted_other, "every seed asks about the same cold instances");
  expect(std::adjacent_find(sorted_seven.begin(), sorted_seven.end()) == sorted_seven.end(),
         "no cold instance is asked twice in a phase");
}

void test_checker() {
  const std::string expected = render("\"kind\": \"ground-truth\", \"gadget\": \"disagree\"");
  const std::string line = with_id(expected, 42);
  expect(compare_response(line, 42, expected).empty(), "the reference bytes match");
  std::string corrupted = line;
  corrupted[corrupted.size() / 2] ^= 0x01;
  expect(!compare_response(corrupted, 42, expected).empty(), "one corrupted byte is rejected");
  expect(!compare_response(line, 43, expected).empty(), "a wrong id is rejected");

  Expectation two;
  two.stable_count = 2;
  expect(check_semantics(line, "ground-truth", two).empty(), "DISAGREE has two stable states");
  std::string wrong = line;
  replace_once(wrong, "\"count\": 2", "\"count\": 0");
  replace_once(wrong, "\"has_stable\": true", "\"has_stable\": false");
  expect(!check_semantics(wrong, "ground-truth", two).empty(), "a wrong verdict is rejected");

  const std::string bad = render("\"kind\": \"ground-truth\", \"gadget\": \"bad-chain-4\"");
  Expectation none;
  none.stable_count = gadget_stable_count("bad-chain-4");
  expect(check_semantics(bad, "ground-truth", none).empty(), "BAD chains have no stable state");
  std::string claims_stable = bad;
  replace_once(claims_stable, "\"has_stable\": false, \"count\": 0",
               "\"has_stable\": true, \"count\": 1");
  expect(!check_semantics(claims_stable, "ground-truth", none).empty(),
         "a stable state for a BAD chain is rejected");

  const std::string sim = render("\"kind\": \"simulate\", \"gadget\": \"bad\", \"seed\": 3");
  expect(check_semantics(sim, "simulate", {}).empty(), "a BAD simulation passes");
  std::string two_outcomes = sim;
  replace_once(two_outcomes, "\"cutoff\": false", "\"cutoff\": true");
  expect(!check_semantics(two_outcomes, "simulate", {}).empty(),
         "two simulation outcomes are rejected");

  const std::string repair = render("\"kind\": \"repair\", \"gadget\": \"bad\", \"seed\": 1");
  expect(check_semantics(repair, "repair", {}).empty(), "the BAD repair is verified");
  std::string unverified = repair;
  std::size_t at;
  while ((at = unverified.find("\"ground_truth\": \"verified\"")) != std::string::npos) {
    unverified.replace(at, 26, "\"ground_truth\": \"failed\"");
  }
  expect(!check_semantics(unverified, "repair", {}).empty(), "a failed repair is rejected");

  std::string error_line = line;
  replace_once(error_line, "\"fingerprint\"", "\"error\": \"boom\", \"fingerprint\"");
  expect(!check_semantics(error_line, "ground-truth", two).empty(), "an error is rejected");
}

}  // namespace

int run_selftest() {
  test_percentile();
  test_schedule();
  test_checker();
  std::fprintf(stderr, "fsrbench selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace fsrbench
