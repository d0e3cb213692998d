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
 *    field: the writer delta-encodes each column (util/varint.hh —
 *    zigzag-varint deltas, or run-length coded deltas for
 *    constant-stride spans) and keeps whichever encoding is smallest,
 *    falling back to the raw column when the data is incompressible.
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
 * image (an mmap'd persistent cache entry) and is the TraceSource
 * that replays either. Trace I/O never terminates the process: every
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
#include <string>
#include <vector>

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

/**
 * Writes TraceRecords to a binary trace file in chunked blocks.
 *
 * Failures never terminate the process: the first one (the file
 * cannot be created, a write comes up short, the header cannot be
 * finalised) is kept in status(), every later append is dropped, and
 * close() returns it.
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
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record (buffered into the pending block). */
    void append(const TraceRecord &r);

    /** Append a whole chunk as one block. */
    void append(const TraceChunk &chunk);

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

  private:
    /** Write the pending partial block, if any. */
    void flushPending();

    /** Encode and write one block in the selected format. */
    void writeBlock(const TraceChunk &chunk);

    /** Write @p bytes at @p data; records an IoError on failure. */
    void writeRaw(const void *data, size_t bytes, const char *what);

    std::FILE *file = nullptr;
    std::string path;
    uint32_t ver = traceVersionV3;
    uint64_t count = 0;
    uint64_t fileDigest = 0; ///< running FNV over v3 block bytes
    TraceIoResult st;
    std::unique_ptr<TraceChunk> pending;
    /// reusable encode scratch (payload build + candidate encodings)
    std::vector<uint8_t> payload, candA, candB, candC, candD;
};

namespace detail {
/// block decode scratch (heap-allocated: ~250 KiB)
struct TraceDecodeScratch;
} // namespace detail

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
    std::unique_ptr<detail::TraceDecodeScratch> scratch;
};

/// The image reader's former name, kept for the benchmark's probes.
using TraceBufferReader = TraceReader;

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
