/**
 * @file
 * Binary trace files: record a kernel's dynamic stream once, replay
 * it many times (SimpleScalar-style trace-driven methodology, and the
 * natural interchange point for driving the predictors from traces
 * produced elsewhere).
 *
 * Two on-disk formats share the 16-byte header (magic "GDTR",
 * version, record count) and the same block structure of up to
 * TraceChunk::capacity records per block:
 *
 *  - Version 2 (chunked columnar, raw): each block is a u32 record
 *    count followed by one little-endian column per field — the
 *    on-disk mirror of the in-memory SoA TraceChunk.
 *
 *  - Version 3 (chunked columnar, stride-delta compressed): each
 *    block is a u32 record count, a u32 payload length, a u64 FNV-1a
 *    digest of the payload, and then one *codec-tagged* column per
 *    field: the writer sizes each candidate encoding of a column
 *    exactly (util/varint.hh — zigzag-varint deltas, or run-length
 *    coded deltas for constant-stride spans, plain or phase-
 *    transposed) and encodes only the smallest, falling back to the
 *    raw column when the data is incompressible.
 *    A 16-byte footer carries an FNV-1a digest of every block byte,
 *    so whole-file integrity can be checked cheaply (the persistent
 *    disk cache does, before trusting an entry). Stride-dominant
 *    streams — the paper's whole subject — compress by an order of
 *    magnitude; see bench/trace_compress.
 *
 * Writers emit version 3 by default and version 2 on request.
 * Readers accept both transparently and reject anything else with an
 * error naming the found and supported versions.
 *
 * One reader, TraceReader, decodes both a file and an in-memory
 * image and is the TraceSource that replays either. The persistent
 * cache instead verifies a whole loaded image once (indexTraceImage),
 * adopts a stored one with the block index its writer kept, and
 * decodes single blocks on demand (decodeTraceBlock), so a reader
 * that touches a few blocks pays for those alone.
 *
 * Trace I/O never terminates the process: every
 * malformed input (missing file, wrong magic or version, truncation,
 * flipped bytes, hostile varints) and every failed write comes back
 * as a typed TraceIoResult. The persistent trace cache uses this to
 * quarantine corrupt entries and survive failed stores; command-line
 * tools turn a failure into fatal() in main().
 */

#ifndef GDIFF_WORKLOAD_TRACE_IO_HH
#define GDIFF_WORKLOAD_TRACE_IO_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/mapping.hh"
#include "workload/trace.hh"

namespace gdiff {
namespace workload {

/// @name trace format versions
/// @{
inline constexpr uint32_t traceVersionV2 = 2;
inline constexpr uint32_t traceVersionV3 = 3;
/// oldest and newest versions the readers accept
inline constexpr uint32_t traceVersionMin = traceVersionV2;
inline constexpr uint32_t traceVersionMax = traceVersionV3;
/// @}

/** What a trace read attempt concluded. Everything except Ok and End
 *  is a hard error for the stream. */
enum class TraceIoStatus
{
    Ok,             ///< a chunk was produced
    End,            ///< clean end of stream (and footer verified, v3)
    IoError,        ///< open/seek/read failed at the OS level
    Truncated,      ///< the file ends before the promised data
    BadMagic,       ///< not a gdiff trace file
    BadVersion,     ///< version outside [traceVersionMin, max]
    Corrupt,        ///< structurally invalid block/column/footer
    DigestMismatch, ///< stored digest does not match the bytes
};

/** @return a stable lowercase name for @p s (logs, tests). */
const char *traceIoStatusName(TraceIoStatus s);

/** A status plus a human-readable message for the error cases. */
struct TraceIoResult
{
    TraceIoStatus status = TraceIoStatus::Ok;
    std::string message;

    bool ok() const { return status == TraceIoStatus::Ok; }
    bool end() const { return status == TraceIoStatus::End; }
    bool failed() const { return !ok() && !end(); }
};

namespace detail {
/// a v3 writer's ring of blocks on their way to the encoders
struct TraceEncodeRing;
/// one v3 block in a TraceEncodeRing
struct TraceEncodeSlot;
} // namespace detail

/** Where one block of a v3 trace image lives. */
struct TraceBlockRef
{
    size_t payload = 0;        ///< byte offset of the column payload
    uint32_t records = 0;      ///< records in the block
    uint32_t payloadBytes = 0; ///< length of the column payload

    bool operator==(const TraceBlockRef &) const = default;
};

/** A whole trace image in memory: the first @c size bytes of @c map. */
struct TraceImage
{
    Mapping map;
    size_t size = 0;

    const uint8_t *data() const { return map.data(); }
};

/**
 * Writes TraceRecords to a binary trace file in chunked blocks.
 *
 * A v3 writer encodes blocks on the process's worker pool
 * (util/worker_pool.hh). append() copies each block into a ring of
 * eight slots, posts a task to encode it, and returns, so the caller
 * generates the next block while earlier ones encode; the first
 * block's task waits for the second block, so a one-block trace posts
 * nothing. The calling thread writes finished blocks to the file in
 * order, so the bytes are those of a serial encode. The ring holds at
 * most seven blocks in flight: append() waits for the oldest when it
 * is full, and close() and the destructor for every queued block.
 * While it waits, the calling thread encodes the blocks no worker has
 * taken, so a writer finishes on a busy pool, or with none. A v2
 * writer posts nothing.
 *
 * A v3 writer made by keepingImage() also keeps every byte it writes
 * in one image in memory. It copies each encoded block into the image
 * and digests and writes it from there, so the file, the image and the
 * digests cover the same bytes, and it records each block's
 * TraceBlockRef as it commits it. takeImage() hands over both, so the
 * image needs neither a read-back nor a second pass to be indexed.
 *
 * Failures never terminate the process: the first one (the file
 * cannot be created, a write comes up short, the header cannot be
 * finalised) is kept in status(), every later append is dropped, and
 * close() returns it. A write failure shows in status() once the
 * calling thread commits the block whose write failed.
 */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing (truncates). On failure status() is
     * an IoError naming the path.
     *
     * @param version on-disk format: traceVersionV3 (default,
     * stride-delta compressed) or traceVersionV2 (raw columns).
     */
    explicit TraceWriter(const std::string &path,
                         uint32_t version = traceVersionV3);

    /**
     * A v3 writer to @p path that also keeps its image, for a trace of
     * at most @p maxRecords records in blocks of up to
     * TraceChunk::capacity. The image reserves room for the largest
     * such trace as address space, and a page is backed only once a
     * block is written to it. When the room cannot be reserved, or the
     * blocks outgrow it, status() is an IoError.
     */
    static TraceWriter keepingImage(const std::string &path,
                                    uint64_t maxRecords);

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record (buffered into the pending block). */
    void append(const TraceRecord &r);

    /** Append a whole chunk as one block. */
    void append(const TraceChunk &chunk);

    /**
     * Append @p chunk as one block without copying it: a v3 writer
     * takes the chunk into its ring and leaves in @p chunk a free one
     * whose records are unspecified.
     * Otherwise as append(const TraceChunk &).
     */
    void append(std::unique_ptr<TraceChunk> &chunk);

    /**
     * Flush, finalise the header (and v3 footer), close. Idempotent.
     * @return Ok, or the first failure of this writer.
     */
    TraceIoResult close();

    /** @return Ok, or the first failure so far (sticky). */
    const TraceIoResult &status() const { return st; }

    /** @return records written so far. */
    uint64_t written() const { return count; }

    /** @return the format version being written. */
    uint32_t version() const { return ver; }

    /**
     * Hand over the image of a writer made by keepingImage(), trimmed
     * to its size, and the index of the blocks it committed. Call
     * once, after close() returned Ok.
     */
    TraceImage takeImage(std::vector<TraceBlockRef> *index);

  private:
    /** Open @p path; keep the image of a trace of at most
     *  @p imageRecords records, if given. */
    TraceWriter(const std::string &path, uint32_t version,
                std::optional<uint64_t> imageRecords);

    /**
     * @return the next @p bytes bytes of the kept image, now claimed,
     * or nullptr (and an IoError) when they do not fit.
     */
    uint8_t *claim(size_t bytes);

    /** Both append()s of a chunk: @p take, if given, owns @p chunk. */
    void appendBlock(const TraceChunk &chunk,
                     std::unique_ptr<TraceChunk> *take);

    /** Write the pending partial block, if any. */
    void flushPending();

    /**
     * Write one block in the selected format. A v3 block is copied
     * into the ring, or with @p take (which owns @p chunk) swapped in.
     */
    void writeBlock(const TraceChunk &chunk,
                    std::unique_ptr<TraceChunk> *take);

    /** Write @p chunk as one block of raw v2 columns. */
    void writeV2Block(const TraceChunk &chunk);

    /**
     * Queue @p chunk in the ring (a copy, or with @p take the chunk
     * itself), post its encode to the pool and commit whatever has
     * finished.
     */
    void writeV3Block(const TraceChunk &chunk,
                      std::unique_ptr<TraceChunk> *take);

    /**
     * Commit the ring's oldest queued block. With @p wait, encode
     * untaken blocks here until it is encoded, else wait for it.
     * @return false when there was none to commit.
     */
    bool commitNext(bool wait);

    /** Digest and write the encoded block in @p slot. */
    void commitSlot(const detail::TraceEncodeSlot &slot);

    /** Add one block's encode time, starting at @p startNs. */
    void addEncodeTime(uint64_t startNs, uint64_t ns);

    /** Write @p bytes at @p data to the image, if kept, and the
     *  file; records an IoError on failure. */
    void writeRaw(const void *data, size_t bytes, const char *what);

    /** Write @p bytes at @p data to the file alone. */
    void writeFile(const void *data, size_t bytes, const char *what);

    std::FILE *file = nullptr;
    std::string path;
    /// the kept image and the blocks committed to it (keepingImage())
    bool toImage = false;
    TraceImage image;
    std::vector<TraceBlockRef> blocks;
    uint32_t ver = traceVersionV3;
    uint64_t count = 0;
    /// running FNV over v3 block bytes, up to the last block's
    /// header: its payload is still in digestPayload
    uint64_t fileDigest = 0;
    TraceIoResult st;
    std::unique_ptr<TraceChunk> pending;
    /// the v3 encode ring (null for v2)
    std::shared_ptr<detail::TraceEncodeRing> ring;
    /// the last committed v3 block's payload (digestBytes bytes, none
    /// before the first block), which the next commit, or close(),
    /// hashes into fileDigest. It lives in that block's ring slot,
    /// which no later block reuses until the next commit.
    const uint8_t *digestPayload = nullptr;
    size_t digestBytes = 0;
    /// trace_io.encode obs time summed over this writer's blocks,
    /// each timed on the thread that encoded it, reported once at
    /// close()
    uint64_t encodeStartNs = 0, encodeNs = 0, encodeBlocks = 0;
};

/**
 * Replays a binary trace, from a file or from an in-memory image,
 * with typed, recoverable errors.
 *
 * read() produces one on-disk block per call and verifies it: block
 * structure and digest for v3, and at the end of a v3 stream the
 * whole-file digest footer, before End is reported. Failures are
 * sticky: once a read fails, every later read() and fill() reports
 * the same failure, so a driver that only sees fill() return false
 * can tell a clean end from a damaged stream through status().
 */
class TraceReader : public TraceSource
{
  public:
    TraceReader();
    ~TraceReader() override;

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * Open and validate @p path's header.
     *
     * @param maxVersion newest format version to accept; readers
     * from the version-2 era are simulated in tests by passing
     * traceVersionV2.
     */
    TraceIoResult open(const std::string &path,
                       uint32_t maxVersion = traceVersionMax);

    /**
     * Open the @p size-byte trace image at @p data. Non-owning: the
     * bytes must outlive the reader.
     */
    TraceIoResult open(const uint8_t *data, size_t size,
                       uint32_t maxVersion = traceVersionMax);

    /**
     * Read the next block into @p chunk.
     * @return Ok with records in @p chunk, End at the clean end of
     * the stream (after footer verification for v3), or an error.
     */
    TraceIoResult read(TraceChunk &chunk);

    /** TraceSource: read().ok(); see status() for why it stopped. */
    bool fill(TraceChunk &chunk) override { return read(chunk).ok(); }

    /** Rewind to the first record (clears a sticky End or error). */
    TraceIoResult rewind();

    /** @return the result of the last open(), read() or rewind(). */
    const TraceIoResult &status() const { return last; }

    /** @return total records the header promises. */
    uint64_t totalRecords() const { return total; }

    /** @return the stream's format version (valid after open()). */
    uint32_t version() const { return ver; }

  private:
    /** Validate the header and reset the stream position. */
    TraceIoResult start(uint32_t maxVersion);

    /** Decode the next block (or the v3 footer) into @p chunk. */
    TraceIoResult readBlock(TraceChunk &chunk);

    /**
     * @return the next @p n bytes of the stream, or nullptr if it
     * ends first. A file is read into blockBuf; an image is a view.
     */
    const uint8_t *take(size_t n);

    /** Close the file, forget the image, drop buffered records. */
    void reset();

    std::FILE *file = nullptr;
    const uint8_t *image = nullptr, *cursor = nullptr, *end = nullptr;
    std::string name; ///< for messages: "trace 'path'" or "trace image"
    uint32_t ver = 0;
    uint64_t total = 0;
    uint64_t consumed = 0;
    uint64_t runningDigest = 0;
    TraceIoResult last;
    std::vector<uint8_t> blockBuf;
};

/// The image reader's former name, kept for the benchmark's probes.
using TraceBufferReader = TraceReader;

/**
 * Verify a whole v3 trace image without decoding any column, and
 * index its blocks. Checks the header, every block header, every
 * block digest, every column directory (a codec tag valid for its
 * column, lengths that sum to the payload), the record-count sum, the
 * footer magic and the whole-file digest. What is left for
 * decodeTraceBlock() is the inside of each column's encoding, which
 * only a file with forged digests can get wrong.
 *
 * @return Ok with one entry per block in @p blocks, or the first
 * failure (v2 images are rejected as BadVersion: only v3 carries
 * the digests this check rests on).
 */
TraceIoResult indexTraceImage(const uint8_t *data, size_t size,
                              std::vector<TraceBlockRef> *blocks);

/**
 * Decode the block @p ref of an image that indexTraceImage()
 * verified into @p chunk. With @p pcValueOnly only the size, pc and
 * value columns of @p chunk are written.
 * @return Ok, or Corrupt when a column's encoding is malformed.
 */
TraceIoResult decodeTraceBlock(const uint8_t *image,
                               const TraceBlockRef &ref,
                               TraceChunk &chunk,
                               bool pcValueOnly = false);

/**
 * The v3 codec's phase/period detector, exported for phase-aware
 * sampling strata (src/sample/): @return the period L (2..48) at
 * which the column's lag-L deltas are most nearly constant per phase
 * over a <= 2048-element scan prefix, or 1 when no period shows a
 * useful signal. A stream's (value-period, pc-period) pair is a cheap
 * fingerprint of which loop phase it is in.
 */
uint32_t detectStridePeriod(const uint64_t *v, uint32_t n);

} // namespace workload
} // namespace gdiff

#endif // GDIFF_WORKLOAD_TRACE_IO_HH
