#include <gtest/gtest.h>

#include "net/url.hpp"
#include "web/mhtml.hpp"
#include "web/page.hpp"

namespace parcel::web {
namespace {

WebObject make_object(const std::string& url, ObjectType type, Bytes size,
                      const char* content = nullptr) {
  WebObject obj;
  obj.url = net::Url::parse(url);
  obj.type = type;
  obj.size = size;
  if (content != nullptr) {
    obj.content = std::make_shared<const std::string>(content);
    obj.size = static_cast<Bytes>(obj.content->size());
  }
  return obj;
}

TEST(WebPage, AddAndFind) {
  WebPage page(net::Url::parse("http://a.example/"));
  page.add(make_object("http://a.example/", ObjectType::kHtml, 0, "<html>"));
  page.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 1000));
  EXPECT_EQ(page.object_count(), 2u);
  EXPECT_NE(page.find(net::Url::parse("http://a.example/x.jpg")), nullptr);
  EXPECT_EQ(page.find(net::Url::parse("http://a.example/missing.jpg")),
            nullptr);
  EXPECT_EQ(page.main().type, ObjectType::kHtml);
}

TEST(WebPage, DuplicateUrlThrows) {
  WebPage page(net::Url::parse("http://a.example/"));
  page.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 10));
  EXPECT_THROW(
      page.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 10)),
      std::invalid_argument);
}

TEST(WebPage, FindIgnoresQueryOnMiss) {
  WebPage page(net::Url::parse("http://a.example/"));
  page.add(make_object("http://a.example/api.json", ObjectType::kJson, 500));
  const WebObject* hit =
      page.find(net::Url::parse("http://a.example/api.json?r=12345"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->url.str(), "http://a.example/api.json");
}

TEST(WebPage, AggregatesSizesAndDomains) {
  WebPage page(net::Url::parse("http://a.example/"));
  page.add(make_object("http://a.example/", ObjectType::kHtml, 100));
  page.add(make_object("http://cdn.example/i.jpg", ObjectType::kImage, 900));
  WebObject late = make_object("http://ads.example/ad.js", ObjectType::kJsAsync,
                               50, "compute(0.1);");
  late.post_onload = true;
  Bytes late_size = late.size;
  page.add(std::move(late));
  EXPECT_EQ(page.total_bytes(), 1000 + late_size);
  EXPECT_EQ(page.onload_bytes(), 1000);
  EXPECT_EQ(page.count_of(ObjectType::kImage), 1u);
  EXPECT_EQ(page.domain_names().size(), 3u);
  EXPECT_EQ(page.objects_on("cdn.example").size(), 1u);
}

TEST(WebPage, MissingMainThrows) {
  WebPage page(net::Url::parse("http://a.example/"));
  EXPECT_THROW((void)page.main(), std::logic_error);
}

TEST(WebObject, TextRequiresContent) {
  WebObject obj = make_object("http://a.example/i.jpg", ObjectType::kImage, 9);
  EXPECT_THROW((void)obj.text(), std::logic_error);
  WebObject js = make_object("http://a.example/a.js", ObjectType::kJs, 0,
                             "compute(1);");
  EXPECT_EQ(js.text(), "compute(1);");
}

TEST(ObjectType, MimeRoundTrip) {
  for (ObjectType t : {ObjectType::kHtml, ObjectType::kCss, ObjectType::kJs,
                       ObjectType::kImage, ObjectType::kFont,
                       ObjectType::kJson, ObjectType::kMedia}) {
    EXPECT_EQ(type_from_mime(mime_type(t)), t) << to_string(t);
  }
  // Async JS shares the JS MIME type; the hint disambiguates elsewhere.
  EXPECT_EQ(type_from_mime(mime_type(ObjectType::kJsAsync)), ObjectType::kJs);
}

TEST(Mhtml, WriterRoundTripsTextAndOpaque) {
  MhtmlWriter writer;
  writer.add(make_object("http://a.example/app.js", ObjectType::kJs, 0,
                         "compute(2);\nfetch(\"http://a.example/d.json\");"));
  writer.add(make_object("http://cdn.example/pic.jpg", ObjectType::kImage,
                         5000));
  EXPECT_EQ(writer.part_count(), 2u);
  EXPECT_GT(writer.payload_bytes(), 5000);

  std::string wire = writer.serialize();
  auto parts = MhtmlReader::parse(wire);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].location.str(), "http://a.example/app.js");
  ASSERT_NE(parts[0].content, nullptr);
  EXPECT_NE(parts[0].content->find("compute(2);"), std::string::npos);
  EXPECT_EQ(parts[1].content, nullptr);  // opaque body
  EXPECT_EQ(parts[1].body_size, 5000);
  EXPECT_EQ(parts[1].content_type, "image/jpeg");
}

TEST(Mhtml, WireSizeIsSerializedLength) {
  MhtmlWriter writer;
  writer.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 1234));
  std::string wire = writer.serialize();
  // Framing overhead exists but is modest.
  EXPECT_GT(wire.size(), 1234u);
  EXPECT_LT(wire.size(), 1234u + 400u);
}

TEST(Mhtml, EmptyBundleSerializesTerminatorOnly) {
  MhtmlWriter writer;
  auto parts = MhtmlReader::parse(writer.serialize());
  EXPECT_TRUE(parts.empty());
}

TEST(Mhtml, MalformedInputThrows) {
  EXPECT_THROW(MhtmlReader::parse("no boundary here"), std::invalid_argument);
  MhtmlWriter writer;
  writer.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 100));
  std::string wire = writer.serialize();
  EXPECT_THROW(MhtmlReader::parse(wire.substr(0, wire.size() / 2)),
               std::invalid_argument);
}

TEST(Mhtml, WireSizeMatchesSerializeOnEdgeCases) {
  MhtmlWriter empty;
  EXPECT_EQ(empty.wire_size(), empty.serialize().size());

  MhtmlWriter zero_text;
  zero_text.add_raw(net::Url::parse("http://a.example/empty.css"), "text/css",
                    0, std::make_shared<const std::string>());
  EXPECT_EQ(zero_text.wire_size(), zero_text.serialize().size());
  auto parts = MhtmlReader::parse(zero_text.serialize());
  ASSERT_EQ(parts.size(), 1u);
  ASSERT_NE(parts[0].content, nullptr);  // empty text, not opaque
  EXPECT_TRUE(parts[0].content->empty());

  MhtmlWriter opaque;
  opaque.add(make_object("http://cdn.example/pic.jpg", ObjectType::kImage,
                         4321));
  opaque.add(make_object("http://a.example/app.js", ObjectType::kJs, 0,
                         "compute(1);"));
  EXPECT_EQ(opaque.wire_size(), opaque.serialize().size());
}

TEST(Mhtml, WireSizeCountsNineteenDigitLengths) {
  // Too large to serialize; the framing arithmetic must still be exact:
  // 18 more length digits and 10^18 - 1 more filler bytes than length 1.
  auto bundle = [](Bytes length) {
    MhtmlWriter writer;
    writer.add_raw(net::Url::parse("http://cdn.example/huge.mp4"),
                   "video/mp4", length, nullptr);
    return writer;
  };
  constexpr Bytes kHuge = 1'000'000'000'000'000'000;  // 19 digits
  const MhtmlWriter one = bundle(1);
  EXPECT_EQ(one.wire_size(), one.serialize().size());
  EXPECT_EQ(bundle(kHuge).wire_size(),
            one.wire_size() + 18 + static_cast<std::size_t>(kHuge - 1));
}

// A one-part bundle whose 5-byte opaque body is announced with
// `length` in place of "5".
std::string with_content_length(const std::string& length) {
  MhtmlWriter writer;
  writer.add(make_object("http://a.example/x.jpg", ObjectType::kImage, 5));
  std::string wire = writer.serialize();
  const std::string field = "Content-Length: 5\r\n";
  wire.replace(wire.find(field), field.size(),
               "Content-Length: " + length + "\r\n");
  return wire;
}

TEST(Mhtml, ContentLengthMustBePlainDecimal) {
  ASSERT_EQ(MhtmlReader::parse(with_content_length("5"))[0].body_size, 5);
  // "-2" used to yield body_size == -2 with the rest of the bundle as
  // its body; the 20-digit value threw std::out_of_range; "5abc" read
  // as 5.
  for (const std::string bad : {"-2", "-4", "99999999999999999999", "5abc",
                                "", "+5", "0x5", "5 5"}) {
    EXPECT_THROW(MhtmlReader::parse(with_content_length(bad)),
                 std::invalid_argument)
        << "Content-Length: '" << bad << "'";
  }
}

}  // namespace
}  // namespace parcel::web
