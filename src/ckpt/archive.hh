/**
 * @file
 * Field-level archives for densim checkpoints (DESIGN.md Sec. 16).
 *
 * Every checkpointed state section is described once, by a
 * `template <class Ar> visit…(Ar &ar, …)` function that names each
 * field with an archive primitive in wire order. Two archives share
 * that description:
 *
 *  - SaveArchive appends each field to a ckpt::Writer;
 *  - LoadArchive reads each field back from a ckpt::Reader and
 *    enforces the bound the primitive carries (array length, index
 *    range, count limit, finiteness), throwing CkptError with the
 *    field's name on a violation.
 *
 * So a field cannot be saved but not restored, and field order,
 * widths and bounds have one owner. Save-side primitives take the
 * same arguments and ignore the bounds; `kLoading` lets a visit stage
 * the rare value that is reached through a getter/setter pair.
 */

#ifndef DENSIM_CKPT_ARCHIVE_HH
#define DENSIM_CKPT_ARCHIVE_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ckpt/serial.hh"
#include "core/effects.hh"

namespace densim::ckpt {

/**
 * Throw the one-line CkptError for a field that fails its bound.
 * Control bytes (from a mangled name in the file) print as '?', so
 * the message stays on one line.
 */
[[noreturn]] inline void
badField(const char *what, std::string detail)
{
    for (char &c : detail)
        if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f)
            c = '?';
    throw CkptError(std::string("checkpoint: bad ") + what + ": " +
                    detail);
}

/** @p v in compact %g form, for error messages. */
inline std::string
shortNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

/** Saving archive: every primitive appends its field to a Writer. */
class SaveArchive
{
  public:
    static constexpr bool kLoading = false;

    explicit SaveArchive(Writer &w) : w_(w) {}

    void u32(std::uint32_t v) { w_.u32(v); }
    void u64(std::uint64_t v) { w_.u64(v); }
    /** DENSIM_COLD: see Writer::size. */
    DENSIM_COLD void size(std::size_t v) { w_.size(v); }
    void boolean(bool v) { w_.boolean(v); }
    void f64(double v) { w_.f64(v); }
    void str(std::string_view s) { w_.str(s); }

    /** A signed int as its 64-bit two's complement. */
    void int64(int v)
    {
        w_.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }

    /** A typed quantity (core/units.hh) as its raw double. */
    template <class Q>
    void quantity(const Q &q, double, double, const char *)
    {
        w_.f64(q.value());
    }

    template <class E>
    void enumeration(E v, std::type_identity_t<E>, const char *,
                     const char *)
    {
        w_.u8(static_cast<std::uint8_t>(v));
    }

    void finite(double v, const char *) { w_.f64(v); }
    void range(double v, double, double, const char *) { w_.f64(v); }

    template <class T>
    void count(T v, std::size_t, const char *)
    {
        w_.u64(static_cast<std::uint64_t>(v));
    }

    void index(std::size_t v, std::size_t, const char *) { w_.size(v); }

    /** A size or flag that must equal the live engine's on load. */
    void same(std::size_t v, const char *) { w_.size(v); }
    void same(bool v, const char *) { w_.boolean(v); }

    void require(bool, const char *, const char *) {}

    void f64Vec(const std::vector<double> &v) { w_.vecF64(v); }
    void sizeVec(const std::vector<std::size_t> &v) { w_.vecSize(v); }

    void f64Array(const std::vector<double> &v, std::size_t,
                  const char *)
    {
        w_.vecF64(v);
    }

    void f64Array(const std::vector<double> &v, std::size_t, double,
                  double, const char *)
    {
        w_.vecF64(v);
    }

    /** One byte per element: flags, small counts or enum values. */
    template <class E>
    void u8Array(const std::vector<E> &v, std::size_t,
                 std::type_identity_t<E>, const char *)
    {
        w_.size(v.size());
        for (const E e : v)
            w_.u8(static_cast<std::uint8_t>(e));
    }

    void sizeArray(const std::vector<std::size_t> &v, std::size_t,
                   std::size_t, const char *)
    {
        w_.vecSize(v);
    }

    /**
     * Length-prefixed records seq[first..]; @p each visits one
     * record. @p min_bytes is a record's smallest wire size.
     */
    template <class Seq, class Each>
    void records(const Seq &seq, std::size_t first, std::size_t,
                 const char *, Each each)
    {
        w_.size(seq.size() - first);
        for (std::size_t i = first; i < seq.size(); ++i)
            each(seq[i]);
    }

    /** An object reached through its snapshot()/restore() pair. */
    template <class T, class Fields>
    void snapshot(const T &obj, Fields fields)
    {
        auto snap = obj.snapshot();
        fields(snap);
    }

  private:
    Writer &w_;
};

/**
 * Validating loading archive: every primitive reads its field and
 * proves its bound before assigning it. The engine being restored is
 * closed throughout, so a throw leaves nothing half-open.
 */
class LoadArchive
{
  public:
    static constexpr bool kLoading = true;

    explicit LoadArchive(Reader &r) : r_(r) {}

    void u32(std::uint32_t &v) { v = r_.u32(); }
    void u64(std::uint64_t &v) { v = r_.u64(); }
    /** DENSIM_COLD: see Reader::size. */
    DENSIM_COLD void size(std::size_t &v) { v = r_.size(); }
    void boolean(bool &v) { v = r_.boolean(); }
    void f64(double &v) { v = r_.f64(); }
    void str(std::string &s) { s = r_.str(); }

    void int64(int &v)
    {
        v = static_cast<int>(static_cast<std::int64_t>(r_.u64()));
    }

    template <class Q>
    void quantity(Q &q, double lo, double hi, const char *what)
    {
        double v = 0.0;
        range(v, lo, hi, what);
        q = Q(v);
    }

    template <class E>
    void enumeration(E &v, std::type_identity_t<E> max, const char *what,
                     const char *label)
    {
        const std::uint8_t raw = r_.u8();
        if (raw > static_cast<std::uint8_t>(max))
            badField(what, std::string(label) + " " +
                               std::to_string(int(raw)));
        v = static_cast<E>(raw);
    }

    void finite(double &v, const char *what)
    {
        v = r_.f64();
        if (!std::isfinite(v))
            badField(what, "non-finite value");
    }

    /** A finite double within [lo, hi]. */
    void range(double &v, double lo, double hi, const char *what)
    {
        v = r_.f64();
        checkRange(v, lo, hi, what);
    }

    template <class T>
    void count(T &v, std::size_t bound, const char *what)
    {
        const std::uint64_t raw = r_.u64();
        if (raw > bound)
            badField(what, "count " + std::to_string(raw) + " > " +
                               std::to_string(bound));
        v = static_cast<T>(raw);
    }

    void index(std::size_t &v, std::size_t bound, const char *what)
    {
        v = r_.size();
        if (v >= bound)
            badField(what, "index " + std::to_string(v) + " >= bound " +
                               std::to_string(bound));
    }

    void same(std::size_t expected, const char *what)
    {
        const std::size_t v = r_.size();
        if (v != expected)
            badField(what, "file has " + std::to_string(v) +
                               ", this engine " +
                               std::to_string(expected));
    }

    void same(bool expected, const char *what)
    {
        if (r_.boolean() != expected)
            badField(what, "disagrees with this configuration");
    }

    void require(bool ok, const char *what, const char *detail)
    {
        if (!ok)
            badField(what, detail);
    }

    void f64Vec(std::vector<double> &v) { v = r_.vecF64(); }
    void sizeVec(std::vector<std::size_t> &v) { v = r_.vecSize(); }

    void f64Array(std::vector<double> &v, std::size_t n, const char *what)
    {
        v = r_.vecF64();
        expectLength(v.size(), n, what);
    }

    /** Length @p n, every element finite and within [lo, hi]. */
    void f64Array(std::vector<double> &v, std::size_t n, double lo,
                  double hi, const char *what)
    {
        f64Array(v, n, what);
        for (const double x : v)
            checkRange(x, lo, hi, what);
    }

    template <class E>
    void u8Array(std::vector<E> &v, std::size_t n,
                 std::type_identity_t<E> max, const char *what)
    {
        const std::vector<std::uint8_t> raw = r_.vecU8();
        expectLength(raw.size(), n, what);
        const auto max_value = static_cast<std::uint8_t>(max);
        v.clear();
        v.reserve(n);
        for (const std::uint8_t b : raw) {
            if (b > max_value)
                badField(what, "value " + std::to_string(int(b)) + " > " +
                                   std::to_string(int(max_value)));
            v.push_back(static_cast<E>(b));
        }
    }

    void sizeArray(std::vector<std::size_t> &v, std::size_t n,
                   std::size_t bound, const char *what)
    {
        v = r_.vecSize();
        expectLength(v.size(), n, what);
        for (const std::size_t x : v)
            if (x >= bound)
                badField(what, "index " + std::to_string(x) +
                                   " >= bound " + std::to_string(bound));
    }

    template <class Seq, class Each>
    void records(Seq &seq, std::size_t first, std::size_t min_bytes,
                 const char *what, Each each)
    {
        std::size_t n = 0;
        count(n, r_.remaining() / min_bytes, what);
        seq.resize(first + n);
        for (std::size_t i = first; i < seq.size(); ++i)
            each(seq[i]);
    }

    template <class T, class Fields>
    void snapshot(T &obj, Fields fields)
    {
        auto snap = obj.snapshot();
        fields(snap);
        obj.restore(snap);
    }

  private:
    static void checkRange(double v, double lo, double hi,
                           const char *what)
    {
        if (!std::isfinite(v))
            badField(what, "non-finite value");
        if (v < lo || v > hi)
            badField(what, "value " + shortNumber(v) + " outside [" +
                               shortNumber(lo) + ", " + shortNumber(hi) +
                               "]");
    }

    static void expectLength(std::size_t got, std::size_t n,
                             const char *what)
    {
        if (got != n)
            badField(what, "length " + std::to_string(got) +
                               " != expected " + std::to_string(n));
    }

    Reader &r_;
};

} // namespace densim::ckpt

#endif // DENSIM_CKPT_ARCHIVE_HH
