// Unit tests for token mint/verify, the cache, and accounting; plus
// integration through the router for the three uncached-token policies.
#include <gtest/gtest.h>

#include <vector>

#include "directory/fabric.hpp"
#include "test_util.hpp"
#include "tokens/cache.hpp"
#include "tokens/token.hpp"

namespace srp::tokens {
namespace {

using test::local_segment;
using test::p2p_segment;
using test::pattern_bytes;

TokenBody sample_body() {
  TokenBody body;
  body.router_id = 7;
  body.port = 3;
  body.max_priority = 5;
  body.reverse_ok = true;
  body.account = 1234;
  body.byte_limit = 10'000;
  return body;
}

TEST(Token, MintOpenRoundTrip) {
  TokenAuthority authority(0xDEADBEEF);
  const wire::Bytes token = authority.mint(sample_body());
  EXPECT_EQ(token.size(), kTokenWireSize);
  const auto body = authority.open(7, token);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->router_id, 7u);
  EXPECT_EQ(body->port, 3);
  EXPECT_EQ(body->account, 1234u);
  EXPECT_TRUE(body->reverse_ok);
  EXPECT_EQ(body->byte_limit, 10'000u);
  EXPECT_NE(body->serial, 0u);
}

TEST(Token, SerialsAreUnique) {
  TokenAuthority authority(1);
  const auto t1 = authority.mint(sample_body());
  const auto t2 = authority.mint(sample_body());
  EXPECT_NE(t1, t2);  // serial randomizes the ciphertext
}

TEST(Token, TamperDetected) {
  TokenAuthority authority(42);
  wire::Bytes token = authority.mint(sample_body());
  for (std::size_t i : {0u, 15u, 31u, 35u}) {
    wire::Bytes bad = token;
    bad[i] ^= 0x01;
    EXPECT_FALSE(authority.open(7, bad).has_value()) << "byte " << i;
  }
}

TEST(Token, WrongRouterRejected) {
  TokenAuthority authority(42);
  const wire::Bytes token = authority.mint(sample_body());
  EXPECT_FALSE(authority.open(8, token).has_value());
}

TEST(Token, WrongAuthorityRejected) {
  TokenAuthority mint_authority(42);
  TokenAuthority other(43);
  const wire::Bytes token = mint_authority.mint(sample_body());
  EXPECT_FALSE(other.open(7, token).has_value());
}

TEST(Token, MalformedSizesRejected) {
  TokenAuthority authority(42);
  EXPECT_FALSE(authority.open(7, wire::Bytes{}).has_value());
  EXPECT_FALSE(authority.open(7, wire::Bytes(39, 0)).has_value());
  EXPECT_FALSE(authority.open(7, wire::Bytes(41, 0)).has_value());
}

TEST(TokenCache, HitMissAndFlagging) {
  TokenCache cache;
  const wire::Bytes token(40, 0x22);
  EXPECT_FALSE(cache.lookup(token).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.store(token, sample_body());
  auto entry = cache.lookup(token);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->valid);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Storing a failed verification flags the entry.
  cache.store(token, std::nullopt);
  entry = cache.lookup(token);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->flagged);
}

TEST(TokenCache, ChargingAndLimits) {
  TokenCache cache;
  Ledger ledger;
  const wire::Bytes token(40, 0x33);
  cache.store(token, sample_body());  // limit 10'000
  using Result = TokenCache::ChargeResult;
  EXPECT_EQ(cache.charge(token, 6'000, ledger), Result::kCharged);
  EXPECT_EQ(cache.charge(token, 4'000, ledger), Result::kCharged);
  // Limit exhausted.
  EXPECT_EQ(cache.charge(token, 1, ledger), Result::kLimitExhausted);
  EXPECT_EQ(cache.stats().limit_rejects, 1u);
  EXPECT_EQ(ledger.usage(1234).packets, 2u);
  EXPECT_EQ(ledger.usage(1234).bytes, 10'000u);
}

TEST(TokenCache, ChargeOutcomes) {
  TokenCache cache;
  Ledger ledger;
  using Result = TokenCache::ChargeResult;
  const wire::Bytes unknown(40, 0x55);
  EXPECT_EQ(cache.charge(unknown, 10, ledger), Result::kUnknown);
  const wire::Bytes bad(40, 0x66);
  cache.store(bad, std::nullopt);  // failed verification: flagged
  EXPECT_EQ(cache.charge(bad, 10, ledger), Result::kFlagged);
  EXPECT_EQ(cache.stats().flagged_rejects, 1u);
  EXPECT_EQ(ledger.usage(1234).packets, 0u);
}

TEST(TokenCache, UnlimitedTokenNeverExhausts) {
  TokenCache cache;
  Ledger ledger;
  TokenBody body = sample_body();
  body.byte_limit = 0;
  const wire::Bytes token(40, 0x44);
  cache.store(token, body);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(cache.charge(token, 1'000'000, ledger),
              TokenCache::ChargeResult::kCharged);
  }
}

TEST(TokenCache, MixedStoreLookupChargeTotalsReconcile) {
  // Half the tokens are stored up front, the rest mid-stream, with
  // re-stores interleaved: the ledger's packet total equals the successful
  // charges, and every lookup counts exactly one hit or miss.
  TokenCache cache;
  Ledger ledger;
  constexpr int kTokens = 32;
  constexpr int kRounds = 8;
  constexpr int kOps = 2'000;
  std::vector<wire::Bytes> tokens;
  for (int i = 0; i < kTokens; ++i) {
    tokens.emplace_back(kTokenWireSize, static_cast<std::uint8_t>(i + 1));
  }
  TokenBody body = sample_body();
  body.byte_limit = 0;  // unlimited: every charge on a valid entry succeeds
  for (int i = 0; i < kTokens / 2; ++i) {
    cache.store(tokens[static_cast<std::size_t>(i)], body);
  }
  std::uint64_t charged = 0;
  for (int t = 0; t < kRounds; ++t) {
    for (int i = 0; i < kOps; ++i) {
      const auto& token = tokens[static_cast<std::size_t>((t + i) % kTokens)];
      if (t % 2 == 0) cache.store(token, body);
      const auto entry = cache.lookup(token);
      if (entry.has_value() && entry->valid &&
          cache.charge(token, 10, ledger) ==
              TokenCache::ChargeResult::kCharged) {
        ++charged;
      }
    }
  }
  EXPECT_GT(charged, 0u);
  EXPECT_EQ(ledger.usage(body.account).packets, charged);
  EXPECT_EQ(ledger.usage(body.account).bytes, 10 * charged);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, std::uint64_t{kRounds} * kOps);
}

TEST(Ledger, AccumulatesPerAccount) {
  Ledger ledger;
  ledger.charge(1, 100);
  ledger.charge(1, 50);
  ledger.charge(2, 10);
  EXPECT_EQ(ledger.usage(1).bytes, 150u);
  EXPECT_EQ(ledger.usage(1).packets, 2u);
  EXPECT_EQ(ledger.usage(2).bytes, 10u);
  EXPECT_EQ(ledger.usage(99).packets, 0u);
  EXPECT_EQ(ledger.all().size(), 2u);
}

// --- Enforcement through the router ---

struct TokenRouterTest : ::testing::Test {
  sim::Simulator sim;
  dir::Fabric fabric{sim};
  viper::ViperHost* a = nullptr;
  viper::ViperRouter* r = nullptr;
  viper::ViperHost* b = nullptr;
  int delivered = 0;

  void build(UncachedPolicy policy) {
    a = &fabric.add_host("a.test");
    r = &fabric.add_router("r1");
    b = &fabric.add_host("b.test");
    fabric.connect(*a, *r);
    fabric.connect(*r, *b);
    fabric.enable_tokens(0xfeed, /*enforce=*/true, policy,
                         100 * sim::kMicrosecond);
    b->set_default_handler([this](const viper::Delivery&) { ++delivered; });
  }

  std::optional<dir::IssuedRoute> issued;

  /// Queries once and reuses the same tokens afterwards — a re-query mints
  /// fresh tokens (new serial, new ciphertext) that would miss the cache.
  void send_with_directory_route(int n = 1) {
    if (!issued.has_value()) {
      const auto routes =
          fabric.directory().query(fabric.id_of(*a), "b.test", {});
      ASSERT_FALSE(routes.empty());
      issued = routes[0];
    }
    for (int i = 0; i < n; ++i) {
      viper::SendOptions options;
      options.out_port = issued->host_out_port;
      a->send(issued->route, pattern_bytes(64), options);
    }
  }
};

TEST_F(TokenRouterTest, MissingTokenDropped) {
  build(UncachedPolicy::kOptimistic);
  core::SourceRoute route;
  route.segments = {p2p_segment(2), local_segment()};
  a->send(route, pattern_bytes(64));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(r->stats().dropped_unauthorized, 1u);
}

TEST_F(TokenRouterTest, OptimisticForwardsFirstPacketImmediately) {
  build(UncachedPolicy::kOptimistic);
  send_with_directory_route(1);
  // Run only a little: well under the 100 us verification delay.
  sim.run_until(80 * sim::kMicrosecond);
  EXPECT_EQ(delivered, 1);  // forwarded before verification finished
  sim.run();
  // Verification eventually lands in the cache and charges the account.
  EXPECT_GE(r->token_cache().size(), 1u);
  EXPECT_GT(fabric.ledger().usage(0).bytes, 0u);
}

TEST_F(TokenRouterTest, BlockingDelaysFirstPacket) {
  build(UncachedPolicy::kBlocking);
  send_with_directory_route(1);
  sim.run_until(80 * sim::kMicrosecond);
  EXPECT_EQ(delivered, 0);  // held for verification
  sim.run();
  EXPECT_EQ(delivered, 1);  // released after the token checked out
}

TEST_F(TokenRouterTest, DropPolicyDropsButCachesForLater) {
  build(UncachedPolicy::kDrop);
  send_with_directory_route(1);
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(r->stats().dropped_uncached, 1u);
  // The background verification cached the token: the retry sails through.
  send_with_directory_route(1);
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(TokenRouterTest, ForgedTokenFlaggedAndBlocked) {
  build(UncachedPolicy::kOptimistic);
  const auto routes =
      fabric.directory().query(fabric.id_of(*a), "b.test", {});
  ASSERT_FALSE(routes.empty());
  core::SourceRoute forged = routes[0].route;
  forged.segments[0].token[10] ^= 0xFF;  // tamper

  viper::SendOptions options;
  options.out_port = routes[0].host_out_port;
  // First forged packet slips through (the optimistic window the paper
  // accepts); once verification fails, the rest are blocked.
  a->send(forged, pattern_bytes(64), options);
  sim.run();
  const int after_first = delivered;
  EXPECT_LE(after_first, 1);
  for (int i = 0; i < 5; ++i) {
    a->send(forged, pattern_bytes(64), options);
  }
  sim.run();
  EXPECT_EQ(delivered, after_first);  // all subsequent uses rejected
  EXPECT_GE(r->stats().dropped_unauthorized, 5u);
}

TEST_F(TokenRouterTest, CachedTokenFastPath) {
  build(UncachedPolicy::kOptimistic);
  send_with_directory_route(1);
  sim.run();  // first packet verifies and caches
  const auto hits_before = r->token_cache().stats().hits;
  send_with_directory_route(10);
  sim.run();
  EXPECT_EQ(delivered, 11);
  EXPECT_GE(r->token_cache().stats().hits, hits_before + 10);
}

TEST_F(TokenRouterTest, ByteLimitEnforced) {
  build(UncachedPolicy::kBlocking);
  dir::QueryOptions options;
  options.token_byte_limit = 300;  // fits ~2 small packets
  const auto routes =
      fabric.directory().query(fabric.id_of(*a), "b.test", options);
  ASSERT_FALSE(routes.empty());
  viper::SendOptions send_options;
  send_options.out_port = routes[0].host_out_port;
  for (int i = 0; i < 5; ++i) {
    a->send(routes[0].route, pattern_bytes(64), send_options);
  }
  sim.run();
  EXPECT_LT(delivered, 5);
  EXPECT_GT(r->stats().dropped_token_limit, 0u);
}

}  // namespace
}  // namespace srp::tokens
