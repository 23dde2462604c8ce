// Engine goldens: the router's forwarding engine against committed outputs.
//
// The files under tests/golden/engine_*.json were written by the per-packet
// engine the router used to carry next to the view-based one (field-copying
// decode, a Writer rebuild and a derive() per hop), before that engine was
// deleted.  They are the oracle that outlived its code: every observable
// the two engines had to agree on — chaos outcomes and fault counters
// under a fixed-seed attack, span timelines, metric counters, ledger and
// flow roll-ups, byte-exact fan-in deliveries, in-band telemetry journeys —
// must still match them exactly.  They are never regenerated from the
// engine under test; a mismatch is a behaviour change to explain, not a
// file to refresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "directory/fabric.hpp"
#include "flow/observer.hpp"
#include "flow/plane.hpp"
#include "obs/recorder.hpp"
#include "test_util.hpp"
#include "viper/codec.hpp"

namespace srp::viper {
namespace {

using test::ChaosDigest;
using test::ChaosOutcome;
using test::fnv1a;
using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;
using test::run_chaos;

/// The chaos seeds the goldens were written with (kIntSeed is the INT
/// suite's, IntChaos.*).
constexpr std::uint64_t kSeed = 0xBA7C4;
constexpr std::uint64_t kIntSeed = 0x17A7;

// --- a minimal JSON rendering, compared as text ------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

std::string render_numbers(const std::map<std::string, std::uint64_t>& m) {
  std::string out = "{";
  const char* sep = "\n";
  for (const auto& [key, value] : m) {
    out += sep;
    out += "    " + quoted(key) + ": " + std::to_string(value);
    sep = ",\n";
  }
  return out + "\n  }";
}

std::string render_strings(const std::vector<std::string>& items) {
  std::string out = "[";
  const char* sep = "\n";
  for (const std::string& item : items) {
    out += sep;
    out += "    " + quoted(item);
    sep = ",\n";
  }
  return out + "\n  ]";
}

/// One golden document: named sections in the given order.
std::string document(
    const std::vector<std::pair<std::string, std::string>>& sections) {
  std::string out = "{";
  const char* sep = "\n";
  for (const auto& [name, body] : sections) {
    out += sep;
    out += "  " + quoted(name) + ": " + body;
    sep = ",\n";
  }
  return out + "\n}\n";
}

std::map<std::string, std::uint64_t> outcome_fields(const ChaosOutcome& o) {
  return {{"issued", static_cast<std::uint64_t>(o.issued)},
          {"completed", static_cast<std::uint64_t>(o.completed)},
          {"ok", static_cast<std::uint64_t>(o.ok)},
          {"mismatched", static_cast<std::uint64_t>(o.mismatched)},
          {"ok_after_flap", static_cast<std::uint64_t>(o.ok_after_flap)},
          {"response_hash", o.response_hash}};
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Compares @p text with tests/golden/@p name line by line and reports the
/// first divergence.
void expect_matches_golden(const std::string& name, const std::string& text) {
  const std::string path = std::string(GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path << " missing";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  if (text == golden) return;
  const std::vector<std::string> want = lines_of(golden);
  const std::vector<std::string> got = lines_of(text);
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  ADD_FAILURE() << name << " diverges at line " << i + 1 << " ("
                << got.size() << " lines, golden " << want.size() << ")\n"
                << "  golden: " << (i < want.size() ? want[i] : "<end>")
                << "\n  engine: " << (i < got.size() ? got[i] : "<end>");
}

// --- the goldens -------------------------------------------------------------

TEST(EngineGolden, ChaosOutcomeMatchesGolden) {
  const ChaosOutcome outcome = run_chaos(kSeed);
  EXPECT_GT(outcome.ok, 0);
  expect_matches_golden(
      "engine_chaos.json",
      document({{"outcome", render_numbers(outcome_fields(outcome))},
                {"digest", render_numbers(outcome.digest)}}));
}

/// All SpanRecord fields folded into one comparable key per span, sorted:
/// the timeline is pinned by the timestamps, the sort only fixes the order
/// of records that share them.
std::vector<std::string> span_multiset(const obs::FlightRecorder& recorder) {
  std::vector<std::string> keys;
  for (const auto& span : recorder.spans()) {
    std::ostringstream key;
    key << span.trace_id << '|' << span.hop << '|'
        << static_cast<int>(span.kind) << '|'
        << static_cast<int>(span.token) << '|' << span.cut_through << '|'
        << span.in_port << '|' << span.out_port << '|' << span.start << '|'
        << span.decision << '|' << span.end << '|' << span.queue_delay
        << '|' << span.component_view() << '|';
    for (std::size_t i = 0; i < span.excerpt_len; ++i) {
      key << static_cast<int>(span.excerpt[i]) << ',';
    }
    keys.push_back(std::move(key).str());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(EngineGolden, SpanTimelinesUnderFaultsMatchGolden) {
  stats::Registry registry;
  obs::FlightRecorder recorder(std::size_t{1} << 18);
  const ChaosOutcome outcome = run_chaos(kSeed, {&registry, &recorder});
  EXPECT_GT(recorder.recorded(), 0u);
  // The ring must not have wrapped, or the golden would pin only a suffix.
  ASSERT_EQ(recorder.dropped(), 0u);
  expect_matches_golden(
      "engine_spans.json",
      document({{"outcome", render_numbers(outcome_fields(outcome))},
                {"recorded", std::to_string(recorder.recorded())},
                {"registry", render_numbers(registry.snapshot())},
                {"spans", render_strings(span_multiset(recorder))}}));
}

/// Ledger + flow-plane roll-up digest of a chaos run.
ChaosDigest accounting_digest() {
  flow::FlowPlane plane(flow::FlowConfig{256, 64, 0x5EED});
  ChaosDigest digest;
  const ChaosOutcome outcome = run_chaos(
      kSeed, obs::Observer{nullptr, nullptr, &plane},
      [&](dir::Fabric& fabric) {
        for (const auto& [account, usage] : fabric.ledger().all()) {
          digest["ledger." + std::to_string(account) + ".packets"] =
              usage.packets;
          digest["ledger." + std::to_string(account) + ".bytes"] =
              usage.bytes;
        }
      });
  for (const auto& [account, charge] : plane.account_rollup()) {
    digest["flow." + std::to_string(account) + ".packets"] = charge.packets;
    digest["flow." + std::to_string(account) + ".bytes"] = charge.bytes;
  }
  std::uint64_t sampled = 0;
  for (const auto* observer : plane.observers()) {
    sampled += observer->sampled();
    digest["table." + observer->name() + ".recorded"] =
        observer->table().stats().recorded;
  }
  digest["flow.sampled"] = sampled;
  digest["chaos.ok"] = static_cast<std::uint64_t>(outcome.ok);
  digest["chaos.response_hash"] = outcome.response_hash;
  return digest;
}

TEST(EngineGolden, FlowRollupsAndLedgerMatchGolden) {
  const ChaosDigest digest = accounting_digest();
  EXPECT_FALSE(digest.empty());
  expect_matches_golden("engine_accounting.json",
                        document({{"digest", render_numbers(digest)}}));
}

/// A fault-free fan-in — four sources into one router, all sending at the
/// same instant, so arrivals coincide on four in-ports — with every
/// delivery's timestamps, payload and rebuilt return route pinned.
std::vector<std::string> run_fan_in() {
  sim::Simulator sim;
  dir::Fabric fabric(sim);
  std::vector<viper::ViperHost*> sources;
  for (int i = 0; i < 4; ++i) {
    sources.push_back(&fabric.add_host("s" + std::to_string(i) + ".fan"));
  }
  auto& r1 = fabric.add_router("r1");
  auto& r2 = fabric.add_router("r2");
  auto& dst = fabric.add_host("dst.fan");
  for (auto* src : sources) fabric.connect(*src, r1);  // r1 ports 1..4
  fabric.connect(r1, r2);                              // r1 port 5
  fabric.connect(r2, dst);                             // r2 port 2

  std::vector<std::pair<std::uint64_t, std::string>> records;
  dst.set_default_handler([&](const viper::Delivery& d) {
    std::ostringstream key;
    key << d.packet_id << '|' << d.sent_at << '|' << d.delivered_at << '|'
        << d.hops << '|' << d.truncated << '|' << d.in_port << '|' << d.flow
        << '|' << fnv1a(d.data) << '|'
        << fnv1a(viper::encode_route(d.return_route));
    records.emplace_back(d.packet_id, std::move(key).str());
  });

  core::SourceRoute route;
  route.segments.push_back(p2p_segment(5));
  route.segments.push_back(p2p_segment(2));
  route.segments.push_back(local_segment());
  for (int round = 0; round < 50; ++round) {
    const auto at = static_cast<sim::Time>((round + 1) * sim::kMillisecond);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      sim.at(at, [&, round, i] {
        viper::SendOptions options;
        options.flow = i + 1;
        sources[i]->send(
            route,
            pattern_bytes(1 + ((round * 131 + i * 37) % 900),
                          static_cast<std::uint8_t>(round + i)),
            options);
      });
    }
  }
  sim.run();
  EXPECT_EQ(records.size(), 200u);
  // The arena really carried the traffic, and its slabs recycled once the
  // downstream copies retired.
  EXPECT_GT(r1.arena().stats().acquired, 0u);
  EXPECT_GT(r2.arena().stats().acquired, 0u);
  EXPECT_GT(r1.arena().stats().recycled, 0u);
  std::stable_sort(records.begin(), records.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> keys;
  for (auto& record : records) keys.push_back(std::move(record.second));
  return keys;
}

TEST(EngineGolden, FanInDeliveriesMatchGolden) {
  expect_matches_golden("engine_fanin.json",
                        document({{"deliveries", render_strings(run_fan_in())}}));
}

TEST(EngineGolden, TelemetryChaosDigestMatchesGolden) {
  const ChaosDigest digest = test::telemetry_chaos_digest(kIntSeed);
  EXPECT_GT(digest.at("int.hops_stamped"), 0u);
  expect_matches_golden("engine_int.json",
                        document({{"digest", render_numbers(digest)}}));
}

TEST(EngineReplay, ChaosRunIsDeterministic) {
  test::expect_deterministic([] { return run_chaos(kSeed); });
}

}  // namespace
}  // namespace srp::viper
