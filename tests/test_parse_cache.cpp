#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "net/url.hpp"
#include "replay/replay_store.hpp"
#include "web/css.hpp"
#include "web/generator.hpp"
#include "web/html.hpp"
#include "web/js.hpp"
#include "web/mhtml.hpp"
#include "web/parse_cache.hpp"

namespace parcel::web {
namespace {

std::shared_ptr<const std::string> shared(std::string s) {
  return std::make_shared<const std::string>(std::move(s));
}

/// Every test starts from an empty cache with zeroed counters; the cache
/// is a process-wide singleton, so tests sharing a binary invocation must
/// not depend on each other's entries.
class ParseCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ParseCache::instance().clear();
    ParseCache::instance().reset_stats();
    ParseCache::set_enabled(true);
  }
  void TearDown() override {
    ParseCache::instance().clear();
    ParseCache::set_enabled(true);
  }
};

TEST_F(ParseCacheTest, SecondScanOfSameContentIsAHit) {
  auto doc = shared("<img src=\"/a.png\"><script src=\"/a.js\"></script>");
  auto first = ParseCache::instance().html(*doc, doc);
  auto second = ParseCache::instance().html(*doc, doc);
  EXPECT_EQ(first.artifact.get(), second.artifact.get());  // shared, not a copy
  ParseCache::Stats s = ParseCache::instance().stats();
  EXPECT_EQ(s.html_misses, 1u);
  EXPECT_EQ(s.html_hits, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST_F(ParseCacheTest, CachedArtifactEqualsFreshScan) {
  auto doc = shared(
      "<link rel=\"stylesheet\" href=\"/s.css\">"
      "<script>fetch(\"/x.json\");</script>"
      "<img src=\"http://cdn.example/i.png\">");
  auto cached = ParseCache::instance().html(*doc, doc);
  std::vector<HtmlToken> fresh = MiniHtml::scan(*doc);
  ASSERT_EQ(cached->size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ((*cached)[i].kind, fresh[i].kind);
    EXPECT_EQ((*cached)[i].ref, fresh[i].ref);
    EXPECT_EQ((*cached)[i].script, fresh[i].script);
  }
}

TEST_F(ParseCacheTest, DistinctContentGetsDistinctEntries) {
  auto a = shared("<img src=\"/a.png\">");
  auto b = shared("<img src=\"/b.png\">");
  auto ta = ParseCache::instance().html(*a, a);
  auto tb = ParseCache::instance().html(*b, b);
  EXPECT_NE(ta.artifact.get(), tb.artifact.get());
  EXPECT_EQ(ParseCache::instance().size(), 2u);
  EXPECT_EQ(ParseCache::instance().stats().html_misses, 2u);
}

TEST_F(ParseCacheTest, DisabledCacheScansFreshAndStoresNothing) {
  ParseCache::set_enabled(false);
  auto doc = shared("<img src=\"/a.png\">");
  auto first = ParseCache::instance().html(*doc, doc);
  auto second = ParseCache::instance().html(*doc, doc);
  EXPECT_NE(first.artifact.get(), second.artifact.get());
  EXPECT_EQ(first.pin, doc);  // disabled: the caller's own pin comes back
  EXPECT_EQ(ParseCache::instance().size(), 0u);
  ParseCache::Stats s = ParseCache::instance().stats();
  EXPECT_EQ(s.html_hits, 0u);
  EXPECT_EQ(s.html_misses, 2u);
  // Off or on, the scan result is identical.
  EXPECT_EQ(*first, *second);
}

TEST_F(ParseCacheTest, NullPinScansFreshWithoutInsert) {
  std::string local = "url(/bg.png)";
  auto refs = ParseCache::instance().css(local, nullptr);
  ASSERT_EQ(refs->size(), 1u);
  EXPECT_EQ(ParseCache::instance().size(), 0u);
}

TEST_F(ParseCacheTest, InlineScriptViewsKeyIndependentlyOfDocument) {
  auto doc = shared(
      "<script>fetch(\"/one.json\");</script>"
      "<script>fetch(\"/two.json\");</script>");
  auto tokens = ParseCache::instance().html(*doc, doc);
  ASSERT_EQ(tokens->size(), 2u);
  // Each inline body is a view into the middle of the document; both get
  // their own cache entry keyed by their own bytes.
  auto p1 = ParseCache::instance().js((*tokens)[0].script, tokens.pin);
  auto p2 = ParseCache::instance().js((*tokens)[1].script, tokens.pin);
  ASSERT_EQ(p1->references.size(), 1u);
  ASSERT_EQ(p2->references.size(), 1u);
  EXPECT_EQ(p1->references[0].target, "/one.json");
  EXPECT_EQ(p2->references[0].target, "/two.json");
  // Re-requesting the first body hits.
  auto again = ParseCache::instance().js((*tokens)[0].script, tokens.pin);
  EXPECT_EQ(again.artifact.get(), p1.artifact.get());
  EXPECT_EQ(ParseCache::instance().stats().js_hits, 1u);
}

TEST_F(ParseCacheTest, EntryPinsContentAfterCallerDropsIt) {
  auto js = shared("fetch(\"/pinned.png\");");
  const std::string* raw = js.get();
  auto prog = ParseCache::instance().js(*js, js);
  js.reset();  // cache entry keeps the string alive
  ASSERT_EQ(prog->references.size(), 1u);
  EXPECT_EQ(prog->references[0].target, "/pinned.png");
  // The borrowed view still points into the original buffer.
  const char* t = prog->references[0].target.data();
  EXPECT_GE(t, raw->data());
  EXPECT_LT(t, raw->data() + raw->size());
}

TEST_F(ParseCacheTest, ClearReleasesEntriesButNotOutstandingArtifacts) {
  auto css = shared("body { background: url(\"/bg.png\"); }");
  auto refs = ParseCache::instance().css(*css, css);
  ASSERT_EQ(ParseCache::instance().size(), 1u);
  ParseCache::instance().clear();
  EXPECT_EQ(ParseCache::instance().size(), 0u);
  // The artifact (and, via our own `css` pointer, its backing string)
  // remains usable.
  ASSERT_EQ(refs->size(), 1u);
  EXPECT_EQ((*refs)[0].target, "/bg.png");
}

TEST_F(ParseCacheTest, SweepDropsDeadEntriesAndKeepsOwnedOnes) {
  auto corpus = shared("<img src=\"/corpus.png\">");  // we keep owning this
  auto transient = shared("<img src=\"/transient.png\">");
  ParseCache::instance().html(*corpus, corpus);
  ParseCache::instance().html(*transient, transient);
  ASSERT_EQ(ParseCache::instance().size(), 2u);
  transient.reset();  // cache becomes the string's only owner: dead weight
  EXPECT_EQ(ParseCache::instance().sweep_transient(), 1u);
  EXPECT_EQ(ParseCache::instance().size(), 1u);
  // The surviving corpus entry still hits.
  ParseCache::instance().reset_stats();
  ParseCache::instance().html(*corpus, corpus);
  EXPECT_EQ(ParseCache::instance().stats().html_hits, 1u);
}

TEST_F(ParseCacheTest, SweepKeepsEntriesWhoseArtifactIsStillBorrowed) {
  auto js = shared("fetch(\"/borrowed.json\");");
  auto prog = ParseCache::instance().js(*js, js);
  js.reset();
  // The artifact borrows views from the pinned string; while we hold it,
  // sweeping must not free the backing bytes.
  EXPECT_EQ(ParseCache::instance().sweep_transient(), 0u);
  ASSERT_EQ(prog->references.size(), 1u);
  EXPECT_EQ(prog->references[0].target, "/borrowed.json");
  prog = {};
  EXPECT_EQ(ParseCache::instance().sweep_transient(), 1u);
  EXPECT_EQ(ParseCache::instance().size(), 0u);
}

TEST_F(ParseCacheTest, SweepTreatsDocumentAndInlineScriptsAsOneGroup) {
  auto doc = shared(
      "<script>fetch(\"/one.json\");</script>"
      "<script>fetch(\"/two.json\");</script>");
  {
    auto tokens = ParseCache::instance().html(*doc, doc);
    ParseCache::instance().js((*tokens)[0].script, tokens.pin);
    ParseCache::instance().js((*tokens)[1].script, tokens.pin);
  }
  ASSERT_EQ(ParseCache::instance().size(), 3u);
  // The three entries pin the same string. While the document is owned
  // outside the cache, the whole group must survive — the inline-script
  // entries alone cannot justify freeing bytes the document entry keys.
  EXPECT_EQ(ParseCache::instance().sweep_transient(), 0u);
  doc.reset();
  // Now the group is fully internal: all three go together.
  EXPECT_EQ(ParseCache::instance().sweep_transient(), 3u);
  EXPECT_EQ(ParseCache::instance().size(), 0u);
}

TEST_F(ParseCacheTest, CssCommentPathReturnsViewsIntoOriginal) {
  auto css = shared(
      "/* lead */ .a { background: url(/one.png); }\n"
      ".b { background: url(/two.png); } /* tail */");
  auto refs = ParseCache::instance().css(*css, css);
  ASSERT_EQ(refs->size(), 2u);
  for (const Reference& r : *refs) {
    // Comment stripping works on a local copy; the returned views must
    // be mapped back into the cached original, never the scratch copy.
    EXPECT_GE(r.target.data(), css->data());
    EXPECT_LT(r.target.data(), css->data() + css->size());
  }
  EXPECT_EQ((*refs)[0].target, "/one.png");
  EXPECT_EQ((*refs)[1].target, "/two.png");
}

TEST_F(ParseCacheTest, ConcurrentRequestsShareOneScan) {
  auto doc = shared(
      "<img src=\"/a.png\"><script src=\"/s.js\"></script>"
      "<link rel=\"stylesheet\" href=\"/s.css\">");
  constexpr int kThreads = 8;
  std::vector<Parsed<std::vector<HtmlToken>>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        results[static_cast<std::size_t>(i)] =
            ParseCache::instance().html(*doc, doc);
      });
    }
    for (auto& t : threads) t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[0].artifact.get(),
              results[static_cast<std::size_t>(i)].artifact.get());
  }
  ParseCache::Stats s = ParseCache::instance().stats();
  EXPECT_EQ(s.html_misses, 1u);
  EXPECT_EQ(s.html_hits, static_cast<std::uint64_t>(kThreads - 1));
}

// --- Content keying -----------------------------------------------------

/// True when every byte of `view` lies inside `owner`.
bool lies_in(std::string_view view, const std::string& owner) {
  return view.data() >= owner.data() &&
         view.data() + view.size() <= owner.data() + owner.size();
}

TEST_F(ParseCacheTest, EqualBytesInDistinctStringsShareOneEntry) {
  auto a = shared(
      "<img src=\"/a.png\"><script>fetch(\"/x.json\");</script>");
  auto b = shared(*a);  // same bytes, different address
  ASSERT_NE(a->data(), b->data());
  auto first = ParseCache::instance().html(*a, a);
  auto second = ParseCache::instance().html(*b, b);
  EXPECT_EQ(ParseCache::instance().size(), 1u);
  ParseCache::Stats s = ParseCache::instance().stats();
  EXPECT_EQ(s.html_misses, 1u);
  EXPECT_EQ(s.html_hits, 1u);
  // The hit hands back the entry's pin, the first string, and views into
  // it rather than into the caller's copy.
  EXPECT_EQ(second.pin, a);
  EXPECT_EQ(second.artifact.get(), first.artifact.get());
  ASSERT_EQ(second->size(), 2u);
  EXPECT_TRUE(lies_in((*second)[0].ref.target, *a));
  EXPECT_TRUE(lies_in((*second)[1].script, *a));

  // The returned pin alone keeps the views valid once the caller drops
  // both strings and the cache lets go of its entry.
  first = {};
  a.reset();
  b.reset();
  ParseCache::instance().clear();
  EXPECT_EQ((*second)[0].ref.target, "/a.png");
  EXPECT_EQ((*second)[1].script, "fetch(\"/x.json\");");
  EXPECT_TRUE(lies_in((*second)[1].script, *second.pin));
}

TEST_F(ParseCacheTest, InlineScriptLookupsOnACopyUseTheReturnedPin) {
  auto corpus = shared(
      "<script>fetch(\"/one.json\");</script>"
      "<script>fetch(\"/two.json\");</script>");
  (void)ParseCache::instance().html(*corpus, corpus);
  {
    auto copy = shared(*corpus);
    auto doc = ParseCache::instance().html(*copy, copy);
    ASSERT_EQ(doc.pin, corpus);
    ASSERT_EQ(doc->size(), 2u);
    // The token views point into the corpus string, so the copy is the
    // wrong pin for them; the returned one is right.
    EXPECT_THROW((void)ParseCache::instance().js((*doc)[0].script, copy),
                 std::logic_error);
    auto p1 = ParseCache::instance().js((*doc)[0].script, doc.pin);
    auto p2 = ParseCache::instance().js((*doc)[1].script, doc.pin);
    EXPECT_EQ(p1->references[0].target, "/one.json");
    EXPECT_EQ(p2->references[0].target, "/two.json");
  }
  // The copy is gone; the entries pin the corpus string, which we still
  // own, so the sweep keeps all three and they keep hitting.
  ASSERT_EQ(ParseCache::instance().size(), 3u);
  EXPECT_EQ(ParseCache::instance().sweep_transient(), 0u);
  EXPECT_EQ(ParseCache::instance().size(), 3u);
  ParseCache::instance().reset_stats();
  auto doc = ParseCache::instance().html(*corpus, corpus);
  (void)ParseCache::instance().js((*doc)[0].script, doc.pin);
  (void)ParseCache::instance().js((*doc)[1].script, doc.pin);
  EXPECT_EQ(ParseCache::instance().stats().hits(), 3u);
  EXPECT_EQ(ParseCache::instance().stats().misses(), 0u);
}

TEST_F(ParseCacheTest, ViewOutsideItsPinThrows) {
  auto a = shared("fetch(\"/a.js\");");
  auto b = shared(*a);
  EXPECT_THROW((void)ParseCache::instance().js(*b, a), std::logic_error);
  // One byte past the end of the pin is outside too.
  EXPECT_THROW((void)ParseCache::instance().js(
                   std::string_view(a->data() + 1, a->size()), a),
               std::logic_error);
  EXPECT_EQ(ParseCache::instance().size(), 0u);
  // A proper sub-view is fine.
  EXPECT_NO_THROW((void)ParseCache::instance().js(
      std::string_view(*a).substr(1), a));
}

TEST_F(ParseCacheTest, BundleUnpackedDuplicateOfCorpusContentAddsNoEntry) {
  auto corpus = shared("body { background: url(\"/bg.png\"); }");
  (void)ParseCache::instance().css(*corpus, corpus);
  ASSERT_EQ(ParseCache::instance().size(), 1u);

  // Proxy side: the stylesheet crosses the radio inside an MHTML bundle;
  // client side: the reader hands back a fresh copy of the bytes.
  MhtmlWriter writer;
  writer.add_raw(net::Url::parse("http://site.example/s.css"), "text/css",
                 static_cast<Bytes>(corpus->size()), corpus);
  std::vector<MhtmlPart> parts = MhtmlReader::parse(writer.serialize());
  ASSERT_EQ(parts.size(), 1u);
  ASSERT_TRUE(parts[0].content);
  ASSERT_NE(parts[0].content.get(), corpus.get());
  ASSERT_EQ(*parts[0].content, *corpus);

  auto refs = ParseCache::instance().css(*parts[0].content, parts[0].content);
  EXPECT_EQ(ParseCache::instance().size(), 1u);
  EXPECT_EQ(ParseCache::instance().stats().css_hits, 1u);
  EXPECT_EQ(refs.pin, corpus);
  ASSERT_EQ(refs->size(), 1u);
  EXPECT_EQ((*refs)[0].target, "/bg.png");
}

TEST_F(ParseCacheTest, WarmParcelIndReloadRecordsNoMisses) {
  web::PageSpec spec;
  spec.site = "warm.example.com";
  spec.object_count = 30;
  spec.total_bytes = util::kib(400);
  spec.seed = 31;
  replay::ReplayStore store;
  store.record(PageGenerator::generate(spec));
  const WebPage* page = store.find("http://warm.example.com/");
  ASSERT_NE(page, nullptr);

  core::RunConfig cfg;
  cfg.seed = 3;
  core::RunResult cold =
      core::ExperimentRunner::run(core::Scheme::kParcelInd, *page, cfg);
  ASSERT_TRUE(cold.ok);
  ASSERT_GT(ParseCache::instance().stats().misses(), 0u);

  // Second load: the proxy scans the corpus strings and the client scans
  // bundle-unpacked copies of them; both find the bytes already cached.
  ParseCache::instance().reset_stats();
  core::RunResult warm =
      core::ExperimentRunner::run(core::Scheme::kParcelInd, *page, cfg);
  ASSERT_TRUE(warm.ok);
  EXPECT_GT(ParseCache::instance().stats().hits(), 0u);
  EXPECT_EQ(ParseCache::instance().stats().misses(), 0u);
  EXPECT_EQ(warm.olt.sec(), cold.olt.sec());
}

// --- Identity index ---------------------------------------------------

/// A pin over `buf` that the test, not the pin, keeps alive: the next
/// aliasing pin over the same buffer lands at the same address.
std::shared_ptr<const std::string> alias_pin(const std::string& buf) {
  return {std::make_shared<int>(0), &buf};
}

TEST_F(ParseCacheTest, LookupsOnOnePinCountOneMissThenHits) {
  auto doc = shared(
      "<img src=\"/a.png\"><script>fetch(\"/x.json\");</script>");
  constexpr int kLookups = 5;
  Parsed<std::vector<HtmlToken>> first;
  for (int i = 0; i < kLookups; ++i) {
    auto tokens = ParseCache::instance().html(*doc, doc);
    if (i == 0) first = tokens;
    EXPECT_EQ(tokens.artifact.get(), first.artifact.get());
    auto prog = ParseCache::instance().js((*tokens)[1].script, tokens.pin);
    ASSERT_EQ(prog->references.size(), 1u);
  }
  ParseCache::Stats s = ParseCache::instance().stats();
  EXPECT_EQ(s.html_misses, 1u);
  EXPECT_EQ(s.html_hits, static_cast<std::uint64_t>(kLookups - 1));
  EXPECT_EQ(s.js_misses, 1u);
  EXPECT_EQ(s.js_hits, static_cast<std::uint64_t>(kLookups - 1));
}

TEST_F(ParseCacheTest, AliasingPinOnTheEntrysBufferHits) {
  auto doc = shared("<img src=\"/alias.png\">");
  auto first = ParseCache::instance().html(*doc, doc);
  // A second ownership group over the very same bytes.
  auto alias = alias_pin(*doc);
  auto again = ParseCache::instance().html(*alias, alias);
  EXPECT_EQ(again.artifact.get(), first.artifact.get());
  EXPECT_EQ(again.pin, doc);  // the entry's pin comes back, not the alias
  ParseCache::Stats s = ParseCache::instance().stats();
  EXPECT_EQ(s.html_misses, 1u);
  EXPECT_EQ(s.html_hits, 1u);
  EXPECT_EQ(ParseCache::instance().size(), 1u);
}

/// Looks `buf` up through a pin the test keeps alive, drops every handle
/// so `drop` can remove the entry, rewrites `buf` in place (same address,
/// same size, different bytes) and looks it up again: the second lookup
/// must scan the new bytes, never return the dropped entry's artifact.
template <typename Drop>
void expect_rewritten_buffer_rescans(Drop drop) {
  std::string buf = "<img src=\"/old.png\">";
  {
    auto pin = alias_pin(buf);
    auto tokens = ParseCache::instance().html(buf, pin);
    ASSERT_EQ(tokens->size(), 1u);
    EXPECT_EQ((*tokens)[0].ref.target, "/old.png");
  }
  drop();
  ASSERT_EQ(ParseCache::instance().size(), 0u);
  const char* address = buf.data();
  buf.replace(buf.find("old"), 3, "new");
  ASSERT_EQ(buf.data(), address);
  auto pin = alias_pin(buf);
  auto tokens = ParseCache::instance().html(buf, pin);
  EXPECT_EQ(*tokens, MiniHtml::scan(buf));
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ((*tokens)[0].ref.target, "/new.png");
  EXPECT_EQ(ParseCache::instance().stats().html_misses, 2u);
  EXPECT_EQ(ParseCache::instance().stats().html_hits, 0u);
}

TEST_F(ParseCacheTest, SweptEntryIsNotFoundAtItsOldAddress) {
  expect_rewritten_buffer_rescans(
      [] { EXPECT_EQ(ParseCache::instance().sweep_transient(), 1u); });
}

TEST_F(ParseCacheTest, ClearedEntryIsNotFoundAtItsOldAddress) {
  expect_rewritten_buffer_rescans([] { ParseCache::instance().clear(); });
}

TEST_F(ParseCacheTest, FreshStringAfterSweepScansItsOwnBytes) {
  // Same as above with the allocator choosing the address: the new string
  // may or may not reuse the freed buffer; either way it must rescan.
  const std::string old_text = "<img src=\"/aaaa.png\">";
  const std::string new_text = "<img src=\"/bbbb.png\">";
  for (int round = 0; round < 2; ++round) {
    ParseCache::instance().clear();
    ParseCache::instance().reset_stats();
    {
      auto old = shared(old_text);
      ParseCache::instance().html(*old, old);
    }
    if (round == 0) {
      EXPECT_EQ(ParseCache::instance().sweep_transient(), 1u);
    } else {
      ParseCache::instance().clear();
    }
    auto fresh = shared(new_text);
    auto tokens = ParseCache::instance().html(*fresh, fresh);
    EXPECT_EQ(*tokens, MiniHtml::scan(*fresh));
    EXPECT_EQ(tokens.pin, fresh);
    EXPECT_EQ(ParseCache::instance().stats().html_misses, 2u);
  }
}

TEST_F(ParseCacheTest, HitOnACopyDoesNotIndexTheCallersBuffer) {
  auto doc = shared("<img src=\"/old.png\">");
  ParseCache::instance().html(*doc, doc);
  std::string copy = *doc;  // equal bytes, the caller's own buffer
  ParseCache::instance().html(copy, alias_pin(copy));
  EXPECT_EQ(ParseCache::instance().stats().html_hits, 1u);
  // The caller may rewrite its buffer; the entry never vouched for it.
  copy.replace(copy.find("old"), 3, "new");
  auto tokens = ParseCache::instance().html(copy, alias_pin(copy));
  EXPECT_EQ(*tokens, MiniHtml::scan(copy));
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ((*tokens)[0].ref.target, "/new.png");
  EXPECT_EQ(ParseCache::instance().stats().html_misses, 2u);
}

TEST_F(ParseCacheTest, DisabledAndNullPinLookupsBypassTheIdentityIndex) {
  auto doc = shared("<img src=\"/own.png\">");
  auto cached = ParseCache::instance().html(*doc, doc);
  ParseCache::instance().reset_stats();
  // Null pin on the entry's own bytes: a fresh scan, no hit, no insert.
  auto unpinned = ParseCache::instance().html(*doc, nullptr);
  EXPECT_NE(unpinned.artifact.get(), cached.artifact.get());
  EXPECT_EQ(unpinned.pin, nullptr);
  EXPECT_EQ(*unpinned, *cached);
  // Cache off on the entry's own pin: also a fresh scan.
  ParseCache::set_enabled(false);
  auto off = ParseCache::instance().html(*doc, doc);
  EXPECT_NE(off.artifact.get(), cached.artifact.get());
  EXPECT_EQ(*off, *cached);
  ParseCache::Stats s = ParseCache::instance().stats();
  EXPECT_EQ(s.html_hits, 0u);
  EXPECT_EQ(s.html_misses, 2u);
  EXPECT_EQ(ParseCache::instance().size(), 1u);
}

// --- URL interning ----------------------------------------------------

TEST(UrlInterning, IdsAreDeterministicAndComponentSensitive) {
  net::Url a = net::Url::parse("http://site.example/p/q?x=1");
  net::Url b = net::Url::parse("http://site.example/p/q?x=1");
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.normalized_id(), b.normalized_id());
  // Query participates in id() but not normalized_id().
  net::Url c = net::Url::parse("http://site.example/p/q?x=2");
  EXPECT_NE(a.id(), c.id());
  EXPECT_EQ(a.normalized_id(), c.normalized_id());
  // Scheme participates in id().
  net::Url d = net::Url::parse("https://site.example/p/q?x=1");
  EXPECT_NE(a.id(), d.id());
  // Component boundaries matter: host "site.example/p" + path "/q" must
  // not collide with host "site.example" + path "/p/q".
  net::Url e = net::Url::parse("http://site.example/pq?x=1");
  EXPECT_NE(a.id(), e.id());
}

TEST(UrlInterning, ResolveRefreshesIds) {
  net::Url base = net::Url::parse("http://site.example/dir/page.html");
  net::Url rel = base.resolve("../img/i.png?r=7");
  net::Url direct = net::Url::parse("http://site.example/img/i.png?r=7");
  EXPECT_EQ(rel.id(), direct.id());
  EXPECT_EQ(rel.normalized_id(), direct.normalized_id());
  EXPECT_EQ(net::Url{}.id(), net::Url{}.id());
}

TEST(UrlInterning, NormalizedIdMatchesWithoutQueryIntern) {
  net::Url u = net::Url::parse("http://site.example/a/b?r=123");
  EXPECT_EQ(u.normalized_id().v, net::intern_key(u.without_query()));
}

}  // namespace
}  // namespace parcel::web
