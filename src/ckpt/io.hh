/**
 * @file
 * rr.ckpt.v1 — field-tagged binary checkpoint container (rr::ckpt).
 *
 * The on-disk grammar (all integers little-endian):
 *
 *   Document := Magic Section* Trailer
 *   Magic    := "rrckpt1\n"                    (8 bytes)
 *   Section  := u32 tag, u64 byteLength, Field*
 *   Field    := u32 tag, u8 type, Payload
 *   Payload  := type U64:    u64 value
 *               type F64:    u64 IEEE-754 bit pattern
 *               type Str:    u64 length, bytes
 *               type Bytes:  u64 length, bytes
 *               type U64Vec: u64 count, u64 * count
 *               type U32Vec: u64 count, u32 * count
 *   Trailer  := u32 0xffffffff, u64 fnv1a-64 of every byte after
 *               Magic and before the Trailer
 *
 * Writers emit sections in call order; a Reader parses the whole
 * document up front (strict bounds checks on every length) into a
 * flat index of where each field's payload lies, and then serves
 * random-access typed lookups straight from the document bytes.
 * Unknown section or field tags are an error: the format is
 * versioned, not extensible in place — bump the version for schema
 * changes.
 *
 * Cost model (docs/CKPT.md): a save is one write pass into a buffer
 * that starts with the magic, one resize per field, and one FNV-1a
 * pass in seal(); a load is one FNV-1a pass, one parse pass that
 * allocates only the index, and one copy per field read.
 *
 * Everything here is dependency-free (in the style of exp/json_out)
 * and byte-deterministic: the same save sequence yields the same
 * bytes on every platform. Doubles are stored as bit patterns so a
 * restore is exact, never a parse-and-round.
 *
 * All failures throw ckpt::Error whose message begins "rr.ckpt: ";
 * tools translate that into exit code 2.
 */

#ifndef RR_CKPT_IO_HH
#define RR_CKPT_IO_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rr::ckpt {

/** Raised for any malformed, truncated, or mismatched document. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &what)
        : std::runtime_error("rr.ckpt: " + what)
    {
    }
};

/** The 8-byte document magic, including the newline. */
extern const char kMagic[8];

/** Field payload types (the wire `type` byte). */
enum class FieldType : uint8_t
{
    U64 = 1,
    F64 = 2,
    Str = 3,
    Bytes = 4,
    U64Vec = 5,
    U32Vec = 6,
};

/** FNV-1a 64-bit over @p size bytes at @p data (the trailer hash). */
uint64_t fnv1a(const uint8_t *data, size_t size);

/**
 * Serializes sections of tagged fields into an rr.ckpt.v1 document.
 * Usage: beginSection(tag), field emitters, endSection(), repeat;
 * then seal() to obtain the finished byte vector (magic + trailer).
 */
class Writer
{
  public:
    Writer();

    /** Opens a section. Sections must not nest. */
    void beginSection(uint32_t tag);

    /** Closes the open section, patching its byte length. */
    void endSection();

    void u64(uint32_t tag, uint64_t value);
    void f64(uint32_t tag, double value);
    void str(uint32_t tag, const std::string &value);
    void bytes(uint32_t tag, const std::vector<uint8_t> &value);
    void u64vec(uint32_t tag, const uint64_t *values, size_t count);
    void u32vec(uint32_t tag, const uint32_t *values, size_t count);

    void
    u64vec(uint32_t tag, const std::vector<uint64_t> &values)
    {
        u64vec(tag, values.data(), values.size());
    }

    void
    u32vec(uint32_t tag, const std::vector<uint32_t> &values)
    {
        u32vec(tag, values.data(), values.size());
    }

    /**
     * Finishes the document: appends the checksum trailer and returns
     * the bytes, magic first. The writer must not be reused
     * afterwards.
     */
    std::vector<uint8_t> seal();

  private:
    uint8_t *grow(size_t count);
    uint8_t *field(uint32_t tag, FieldType type, size_t payload);

    std::vector<uint8_t> doc_; ///< magic, then the body so far
    bool inSection_ = false;
    size_t sectionLengthAt_ = 0; ///< offset of the open length slot
    bool sealed_ = false;
};

/**
 * Parses an rr.ckpt.v1 document completely up front and serves typed
 * field lookups. Every structural problem — bad magic, truncated
 * section or payload, unknown field type, checksum mismatch,
 * duplicate tags — throws ckpt::Error from the constructor; lookups
 * throw on missing sections/fields or type mismatches, so restore
 * code never needs its own validation.
 *
 * The index points into @p document, which must outlive the Reader;
 * a temporary document does not compile.
 */
class Reader
{
  public:
    explicit Reader(const std::vector<uint8_t> &document);
    explicit Reader(std::vector<uint8_t> &&document) = delete;

    /** @return true when the document contains section @p tag. */
    bool hasSection(uint32_t section) const;

    /** @return true when @p section has a field @p tag. */
    bool has(uint32_t section, uint32_t tag) const;

    uint64_t u64(uint32_t section, uint32_t tag) const;
    double f64(uint32_t section, uint32_t tag) const;
    std::string str(uint32_t section, uint32_t tag) const;
    std::vector<uint8_t> bytes(uint32_t section, uint32_t tag) const;
    std::vector<uint64_t> u64vec(uint32_t section,
                                 uint32_t tag) const;
    std::vector<uint32_t> u32vec(uint32_t section,
                                 uint32_t tag) const;

  private:
    /** One index entry: a field's type and where its payload lies. */
    struct Field
    {
        uint32_t section;
        uint32_t tag;
        FieldType type;
        uint64_t value;         ///< U64/F64 bit pattern, else count
        const uint8_t *payload; ///< Str/Bytes/vector elements
    };

    const Field *lookup(uint32_t section, uint32_t tag) const;
    const Field &find(uint32_t section, uint32_t tag,
                      FieldType type) const;

    std::vector<uint32_t> sections_; ///< sorted section tags
    std::vector<Field> fields_;      ///< sorted by (section, tag)
};

} // namespace rr::ckpt

#endif // RR_CKPT_IO_HH
