#include "ckpt/io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace rr::ckpt {

const char kMagic[8] = {'r', 'r', 'c', 'k', 'p', 't', '1', '\n'};

namespace {

constexpr uint32_t kTrailerTag = 0xffffffffu;

/** Largest element count any vector field may claim. Documents are
 * whole simulation states — far below this — so anything larger is a
 * hostile length, rejected before the allocation it would imply. */
constexpr uint64_t kMaxElements = 1ull << 32;

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Stores @p v at @p out, little-endian. */
template <typename T>
void
storeLe(uint8_t *out, T v)
{
    for (size_t i = 0; i < sizeof v; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

/** Loads a little-endian T from @p in. */
template <typename T>
T
loadLe(const uint8_t *in)
{
    T v = 0;
    for (size_t i = 0; i < sizeof v; ++i)
        v |= static_cast<T>(in[i]) << (8 * i);
    return v;
}

const char *
typeName(FieldType t)
{
    switch (t) {
      case FieldType::U64: return "u64";
      case FieldType::F64: return "f64";
      case FieldType::Str: return "str";
      case FieldType::Bytes: return "bytes";
      case FieldType::U64Vec: return "u64vec";
      case FieldType::U32Vec: return "u32vec";
    }
    return "?";
}

} // namespace

uint64_t
fnv1a(const uint8_t *data, size_t size)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

// ---------------------------------------------------------------------
// Writer

Writer::Writer() : doc_(kMagic, kMagic + sizeof kMagic) {}

/** Appends @p count bytes for the caller to fill; one resize each. */
uint8_t *
Writer::grow(size_t count)
{
    const size_t at = doc_.size();
    doc_.resize(at + count);
    return doc_.data() + at;
}

/** Appends a field header and room for @p payload bytes after it. */
uint8_t *
Writer::field(uint32_t tag, FieldType type, size_t payload)
{
    if (!inSection_)
        throw Error("field emitted outside a section");
    uint8_t *out = grow(5 + payload);
    storeLe(out, tag);
    out[4] = static_cast<uint8_t>(type);
    return out + 5;
}

void
Writer::beginSection(uint32_t tag)
{
    if (sealed_)
        throw Error("writer already sealed");
    if (inSection_)
        throw Error("nested section");
    uint8_t *out = grow(12);
    storeLe(out, tag);
    storeLe<uint64_t>(out + 4, 0); // patched by endSection()
    sectionLengthAt_ = doc_.size() - 8;
    inSection_ = true;
}

void
Writer::endSection()
{
    if (!inSection_)
        throw Error("endSection outside a section");
    const uint64_t length = doc_.size() - (sectionLengthAt_ + 8);
    storeLe(doc_.data() + sectionLengthAt_, length);
    inSection_ = false;
}

void
Writer::u64(uint32_t tag, uint64_t value)
{
    storeLe(field(tag, FieldType::U64, 8), value);
}

void
Writer::f64(uint32_t tag, double value)
{
    uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value, "f64 width");
    std::memcpy(&bits, &value, sizeof bits);
    storeLe(field(tag, FieldType::F64, 8), bits);
}

void
Writer::str(uint32_t tag, const std::string &value)
{
    uint8_t *out = field(tag, FieldType::Str, 8 + value.size());
    storeLe<uint64_t>(out, value.size());
    std::copy(value.begin(), value.end(), out + 8);
}

void
Writer::bytes(uint32_t tag, const std::vector<uint8_t> &value)
{
    uint8_t *out = field(tag, FieldType::Bytes, 8 + value.size());
    storeLe<uint64_t>(out, value.size());
    std::copy(value.begin(), value.end(), out + 8);
}

void
Writer::u64vec(uint32_t tag, const uint64_t *values, size_t count)
{
    uint8_t *out = field(tag, FieldType::U64Vec, 8 + 8 * count);
    storeLe<uint64_t>(out, count);
    for (size_t i = 0; i < count; ++i)
        storeLe(out + 8 + 8 * i, values[i]);
}

void
Writer::u32vec(uint32_t tag, const uint32_t *values, size_t count)
{
    uint8_t *out = field(tag, FieldType::U32Vec, 8 + 4 * count);
    storeLe<uint64_t>(out, count);
    for (size_t i = 0; i < count; ++i)
        storeLe(out + 8 + 4 * i, values[i]);
}

std::vector<uint8_t>
Writer::seal()
{
    if (inSection_)
        throw Error("seal inside an open section");
    if (sealed_)
        throw Error("writer already sealed");
    sealed_ = true;

    const uint64_t hash =
        fnv1a(doc_.data() + sizeof kMagic, doc_.size() - sizeof kMagic);
    uint8_t *out = grow(12);
    storeLe(out, kTrailerTag);
    storeLe(out + 4, hash);
    return std::move(doc_);
}

// ---------------------------------------------------------------------
// Reader

namespace {

/** Bounds-checked little-endian cursor over the document body. */
class Cursor
{
  public:
    Cursor(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    size_t at() const { return at_; }
    size_t remaining() const { return size_ - at_; }

    uint8_t
    u8()
    {
        need(1, "byte");
        return data_[at_++];
    }

    uint32_t
    u32()
    {
        need(4, "u32");
        at_ += 4;
        return loadLe<uint32_t>(data_ + at_ - 4);
    }

    uint64_t
    u64()
    {
        need(8, "u64");
        at_ += 8;
        return loadLe<uint64_t>(data_ + at_ - 8);
    }

    const uint8_t *
    raw(uint64_t count, const char *what)
    {
        need(count, what);
        const uint8_t *p = data_ + at_;
        at_ += static_cast<size_t>(count);
        return p;
    }

    /**
     * Skips @p count elements of @p width bytes. A truncated array
     * reports the offset of its first missing element.
     */
    const uint8_t *
    elements(uint64_t count, size_t width, const char *what)
    {
        if (count > remaining() / width)
            throw truncated(at_ + remaining() / width * width, what);
        return raw(count * width, what);
    }

  private:
    static Error
    truncated(size_t at, const char *what)
    {
        return Error(std::string("truncated document reading ") + what +
                     " at offset " + hex(at));
    }

    void
    need(uint64_t count, const char *what)
    {
        if (count > size_ - at_)
            throw truncated(at_, what);
    }

    const uint8_t *data_;
    size_t size_;
    size_t at_ = 0;
};

} // namespace

Reader::Reader(const std::vector<uint8_t> &document)
{
    if (document.size() < sizeof kMagic ||
        std::memcmp(document.data(), kMagic, sizeof kMagic) != 0)
        throw Error("bad magic (not an rr.ckpt.v1 document)");

    // Locate and verify the trailer before trusting any length.
    if (document.size() < sizeof kMagic + 12)
        throw Error("truncated document (no checksum trailer)");
    const size_t bodySize = document.size() - sizeof kMagic - 12;
    const uint8_t *body = document.data() + sizeof kMagic;

    Cursor trailer(body + bodySize, 12);
    if (trailer.u32() != kTrailerTag)
        throw Error("missing checksum trailer");
    const uint64_t stored = trailer.u64();
    const uint64_t actual = fnv1a(body, bodySize);
    if (stored != actual)
        throw Error("checksum mismatch: stored " + hex(stored) +
                    ", computed " + hex(actual));

    Cursor cur(body, bodySize);
    while (cur.remaining() > 0) {
        const uint32_t sectionTag = cur.u32();
        const uint64_t sectionLength = cur.u64();
        if (sectionLength > cur.remaining())
            throw Error("section " + hex(sectionTag) +
                        " claims " + hex(sectionLength) +
                        " bytes but only " + hex(cur.remaining()) +
                        " remain");
        sections_.push_back(sectionTag);

        const size_t sectionEnd =
            cur.at() + static_cast<size_t>(sectionLength);
        while (cur.at() < sectionEnd) {
            const uint32_t fieldTag = cur.u32();
            const uint8_t typeByte = cur.u8();
            Field field{sectionTag, fieldTag,
                        static_cast<FieldType>(typeByte), 0, nullptr};
            const auto count = [&](const char *what) {
                const uint64_t n = cur.u64();
                if (n > kMaxElements)
                    throw Error("field " + hex(fieldTag) +
                                " claims an implausible " + what + " " +
                                hex(n));
                field.value = n;
                return n;
            };
            switch (field.type) {
              case FieldType::U64:
              case FieldType::F64:
                field.value = cur.u64();
                break;
              case FieldType::Str:
              case FieldType::Bytes:
                field.payload =
                    cur.raw(count("length"), "string payload");
                break;
              case FieldType::U64Vec:
                field.payload = cur.elements(count("count"), 8, "u64");
                break;
              case FieldType::U32Vec:
                field.payload = cur.elements(count("count"), 4, "u32");
                break;
              default:
                throw Error("field " + hex(fieldTag) +
                            " in section " + hex(sectionTag) +
                            " has unknown type " +
                            hex(typeByte));
            }
            if (cur.at() > sectionEnd)
                throw Error("field " + hex(fieldTag) +
                            " overruns section " + hex(sectionTag));
            fields_.push_back(field);
        }
        if (cur.at() != sectionEnd)
            throw Error("section " + hex(sectionTag) +
                        " length does not land on a field boundary");
    }

    // Sorting finds duplicates in O(n log n), however many (possibly
    // empty) sections and fields a hostile document packs in.
    std::sort(sections_.begin(), sections_.end());
    const auto section =
        std::adjacent_find(sections_.begin(), sections_.end());
    if (section != sections_.end())
        throw Error("duplicate section tag " + hex(*section));
    const auto key = [](const Field &f) {
        return std::pair(f.section, f.tag);
    };
    std::sort(fields_.begin(), fields_.end(),
              [&](const Field &a, const Field &b) {
                  return key(a) < key(b);
              });
    const auto field = std::adjacent_find(
        fields_.begin(), fields_.end(),
        [&](const Field &a, const Field &b) { return key(a) == key(b); });
    if (field != fields_.end())
        throw Error("duplicate field tag " + hex(field->tag) +
                    " in section " + hex(field->section));
}

bool
Reader::hasSection(uint32_t section) const
{
    return std::binary_search(sections_.begin(), sections_.end(),
                              section);
}

const Reader::Field *
Reader::lookup(uint32_t section, uint32_t tag) const
{
    const auto f = std::lower_bound(
        fields_.begin(), fields_.end(), std::pair(section, tag),
        [](const Field &a, const std::pair<uint32_t, uint32_t> &key) {
            return std::pair(a.section, a.tag) < key;
        });
    return f != fields_.end() && f->section == section && f->tag == tag
               ? &*f
               : nullptr;
}

bool
Reader::has(uint32_t section, uint32_t tag) const
{
    return lookup(section, tag) != nullptr;
}

const Reader::Field &
Reader::find(uint32_t section, uint32_t tag, FieldType type) const
{
    if (!hasSection(section))
        throw Error("missing section " + hex(section));
    const Field *f = lookup(section, tag);
    if (f == nullptr)
        throw Error("section " + hex(section) +
                    " is missing field " + hex(tag));
    if (f->type != type)
        throw Error("section " + hex(section) + " field " +
                    hex(tag) + " has type " +
                    typeName(f->type) + ", expected " +
                    typeName(type));
    return *f;
}

uint64_t
Reader::u64(uint32_t section, uint32_t tag) const
{
    return find(section, tag, FieldType::U64).value;
}

double
Reader::f64(uint32_t section, uint32_t tag) const
{
    const uint64_t bits = find(section, tag, FieldType::F64).value;
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
Reader::str(uint32_t section, uint32_t tag) const
{
    const Field &f = find(section, tag, FieldType::Str);
    return std::string(f.payload, f.payload + f.value);
}

std::vector<uint8_t>
Reader::bytes(uint32_t section, uint32_t tag) const
{
    const Field &f = find(section, tag, FieldType::Bytes);
    return std::vector<uint8_t>(f.payload, f.payload + f.value);
}

std::vector<uint64_t>
Reader::u64vec(uint32_t section, uint32_t tag) const
{
    const Field &f = find(section, tag, FieldType::U64Vec);
    std::vector<uint64_t> out(static_cast<size_t>(f.value));
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = loadLe<uint64_t>(f.payload + 8 * i);
    return out;
}

std::vector<uint32_t>
Reader::u32vec(uint32_t section, uint32_t tag) const
{
    const Field &f = find(section, tag, FieldType::U32Vec);
    std::vector<uint32_t> out(static_cast<size_t>(f.value));
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = loadLe<uint32_t>(f.payload + 4 * i);
    return out;
}

} // namespace rr::ckpt
