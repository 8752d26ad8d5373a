/**
 * @file
 * Checkpoint serialization archive (DESIGN.md §7).
 *
 * A single concrete archive class, ckpt::Ar, works in either save or
 * load direction; `Ser` and `Deser` are aliases for call sites that
 * want the direction in the name. Components expose
 *
 *     template <class A> void ser(A &ar) { ar.io(field_); ... }
 *
 * defined inline in their class bodies. Because the method is a
 * template and the dispatch helper is a *member* of Ar (a dependent
 * call, resolved at instantiation time), component headers need no
 * ckpt include and no forward declaration — only translation units
 * that actually save/load pull in this header.
 *
 * Encoding: every scalar is one 64-bit little-endian word (bools,
 * enums and narrower integers widen; doubles are bit-cast, so values
 * round-trip exactly). Containers are length-prefixed; unordered
 * containers are written in sorted key order so the byte stream is
 * independent of hash seeding and insertion history. The format
 * trades space for byte-level determinism and simplicity — checkpoint
 * files are transient artifacts, not archives.
 *
 * Errors are recoverable by design: a truncated or corrupt stream
 * throws ckpt::Error instead of calling emc_fatal, so `emcckpt
 * verify` can exit nonzero, bench::runMany can fail one job without
 * losing the batch, and tests can EXPECT_THROW.
 */

#ifndef EMC_CKPT_SERIAL_HH
#define EMC_CKPT_SERIAL_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace emc::ckpt
{

/** Recoverable checkpoint I/O / validation failure. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &what) : std::runtime_error(what) {}
};

/** Bidirectional binary archive (see file header for the contract). */
class Ar
{
  public:
    /** An archive that appends to an internal byte buffer. */
    static Ar
    saver()
    {
        return Ar(true, {});
    }

    /** An archive that consumes @p bytes from the front. */
    static Ar
    loader(std::vector<std::uint8_t> bytes)
    {
        Ar ar(false, std::move(bytes));
        ar.rd_ = ar.buf_.data();
        ar.rd_size_ = ar.buf_.size();
        return ar;
    }

    /**
     * A loading archive that borrows @p n bytes at @p data instead of
     * owning a copy — restore paths hand whole multi-MB images through
     * here, where the copy is measurable. The caller keeps the bytes
     * alive for the archive's lifetime.
     */
    static Ar
    loaderView(const std::uint8_t *data, std::size_t n)
    {
        Ar ar(false, {});
        ar.rd_ = data;
        ar.rd_size_ = n;
        return ar;
    }

    bool saving() const { return saving_; }
    bool loading() const { return !saving_; }

    /** Bytes written so far (save) / consumed so far (load). */
    std::uint64_t pos() const { return pos_; }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }

    std::vector<std::uint8_t>
    takeBytes()
    {
        return std::move(buf_);
    }

    /** True when a loading archive consumed every byte. */
    bool exhausted() const { return loading() && pos_ == rd_size_; }

    /**
     * The primitive: one 64-bit little-endian word. Loading past the
     * end of the stream throws ckpt::Error.
     */
    void
    raw64(std::uint64_t &v)
    {
        // On little-endian hosts the wire format (64-bit LE words) is
        // the in-memory representation, so whole words move with
        // memcpy; the shift loops are the byte-order-independent
        // fallback. Either path produces the identical byte stream.
        if (saving_) {
            std::uint8_t b[8];
            if constexpr (std::endian::native == std::endian::little) {
                std::memcpy(b, &v, 8);
            } else {
                for (unsigned i = 0; i < 8; ++i)
                    b[i] = static_cast<std::uint8_t>(v >> (8 * i));
            }
            buf_.insert(buf_.end(), b, b + 8);
            pos_ += 8;
            return;
        }
        if (pos_ + 8 > rd_size_) {
            throw Error("checkpoint truncated: need 8 bytes at offset "
                        + std::to_string(pos_) + " of "
                        + std::to_string(rd_size_));
        }
        std::uint64_t w = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&w, rd_ + pos_, 8);
        } else {
            for (unsigned i = 0; i < 8; ++i)
                w |= static_cast<std::uint64_t>(rd_[pos_ + i]) << (8 * i);
        }
        pos_ += 8;
        v = w;
    }

    /**
     * Write (save) or validate (load) an 8-byte tag. A mismatch on
     * load means the stream is misaligned or from a different layout
     * and throws.
     */
    void
    marker(const char *tag)
    {
        const std::uint64_t want = packTag(tag);
        std::uint64_t got = want;
        raw64(got);
        if (loading() && got != want) {
            throw Error(std::string("checkpoint marker mismatch: "
                                    "expected '")
                        + tag + "' at offset "
                        + std::to_string(pos_ - 8));
        }
    }

    /**
     * Write (save) or validate (load) the length prefix of a
     * fixed-length container: the same bytes as a vector's prefix, but
     * a different length on load is a corrupt stream and throws.
     */
    void
    length(std::size_t n)
    {
        std::uint64_t got = n;
        raw64(got);
        if (loading() && got != n) {
            throw Error("checkpoint length mismatch: expected "
                        + std::to_string(n) + ", read "
                        + std::to_string(got) + " at offset "
                        + std::to_string(pos_ - 8));
        }
    }

    /** First 8 bytes of @p tag packed little-endian (zero padded). */
    static std::uint64_t
    packTag(const char *tag)
    {
        std::uint64_t w = 0;
        for (unsigned i = 0; i < 8 && tag[i] != '\0'; ++i) {
            w |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(tag[i]))
                 << (8 * i);
        }
        return w;
    }

    // ---- dispatch -----------------------------------------------------

    /**
     * Serialize one value. Classes with a `ser(A&)` member delegate to
     * it; scalars widen to one raw64 word. Raw pointers are rejected
     * at compile time: host addresses must never reach a checkpoint.
     */
    template <class T>
    void
    io(T &v)
    {
        static_assert(!std::is_pointer_v<T>,
                      "checkpoints must not contain raw pointers");
        if constexpr (requires(T &t, Ar &a) { t.ser(a); }) {
            v.ser(*this);
        } else if constexpr (std::is_same_v<T, bool>) {
            std::uint64_t w = v ? 1 : 0;
            raw64(w);
            if (loading())
                v = (w != 0);
        } else if constexpr (std::is_enum_v<T>) {
            using U = std::underlying_type_t<T>;
            std::uint64_t w =
                static_cast<std::uint64_t>(static_cast<U>(v));
            raw64(w);
            if (loading())
                v = static_cast<T>(static_cast<U>(w));
        } else if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) == sizeof(std::uint64_t),
                          "only 64-bit floating point is supported");
            std::uint64_t w = std::bit_cast<std::uint64_t>(v);
            raw64(w);
            if (loading())
                v = std::bit_cast<T>(w);
        } else if constexpr (std::is_integral_v<T>) {
            std::uint64_t w = static_cast<std::uint64_t>(v);
            raw64(w);
            if (loading())
                v = static_cast<T>(w);
        } else {
            // Dependent-false: fires only when this branch is
            // instantiated (C++20 has no static_assert(false) here).
            static_assert(!std::is_same_v<T, T>,
                          "no serialization defined for this type");
        }
    }

    // ---- container overloads ------------------------------------------

    void
    io(std::string &v)
    {
        std::uint64_t n = v.size();
        raw64(n);
        if (loading()) {
            // A corrupt length must fail as a truncated stream, not as
            // a giant allocation: the bytes occupy at least n bytes.
            if (n > rd_size_ - pos_) {
                throw Error("checkpoint truncated: string of "
                            + std::to_string(n) + " bytes at offset "
                            + std::to_string(pos_) + " of "
                            + std::to_string(rd_size_));
            }
            v.assign(static_cast<std::size_t>(n), '\0');
        }
        for (std::size_t i = 0; i < v.size(); i += 8) {
            std::uint64_t w = 0;
            if (saving_) {
                for (std::size_t j = 0; j < 8 && i + j < v.size(); ++j) {
                    w |= static_cast<std::uint64_t>(
                             static_cast<std::uint8_t>(v[i + j]))
                         << (8 * j);
                }
            }
            raw64(w);
            if (loading()) {
                for (std::size_t j = 0; j < 8 && i + j < v.size(); ++j)
                    v[i + j] = static_cast<char>((w >> (8 * j)) & 0xff);
            }
        }
    }

    template <class T>
    void
    io(std::vector<T> &v)
    {
        std::uint64_t n = v.size();
        raw64(n);
        if (loading()) {
            v.clear();
            v.resize(static_cast<std::size_t>(n));
        }
        for (auto &e : v)
            io(e);
    }

    /**
     * Bulk path for word vectors: the element encoding is exactly the
     * little-endian in-memory layout, so the whole payload moves as
     * one memcpy on little-endian hosts (byte stream unchanged).
     */
    void
    io(std::vector<std::uint64_t> &v)
    {
        std::uint64_t n = v.size();
        raw64(n);
        if constexpr (std::endian::native == std::endian::little) {
            const std::size_t len = static_cast<std::size_t>(n) * 8;
            if (saving_) {
                const auto *p =
                    reinterpret_cast<const std::uint8_t *>(v.data());
                // lint-ok: ckpt-field (byte view, not a host address)
                buf_.insert(buf_.end(), p, p + len);
                pos_ += len;
                return;
            }
            if (pos_ + len > rd_size_) {
                throw Error(
                    "checkpoint truncated: need "
                    + std::to_string(len) + " bytes at offset "
                    + std::to_string(pos_) + " of "
                    + std::to_string(rd_size_));
            }
            v.resize(static_cast<std::size_t>(n));
            if (len != 0)
                std::memcpy(v.data(), rd_ + pos_, len);
            pos_ += len;
            return;
        }
        if (loading()) {
            v.clear();
            v.resize(static_cast<std::size_t>(n));
        }
        for (auto &e : v)
            io(e);
    }

    void
    io(std::vector<bool> &v)
    {
        std::uint64_t n = v.size();
        raw64(n);
        if (loading())
            v.assign(static_cast<std::size_t>(n), false);
        for (std::size_t i = 0; i < v.size(); ++i) {
            bool b = v[i];
            io(b);
            if (loading())
                v[i] = b;
        }
    }

    template <class T>
    void
    io(std::deque<T> &v)
    {
        std::uint64_t n = v.size();
        raw64(n);
        if (loading()) {
            v.clear();
            v.resize(static_cast<std::size_t>(n));
        }
        for (auto &e : v)
            io(e);
    }

    template <class T>
    void
    io(std::list<T> &v)
    {
        std::uint64_t n = v.size();
        raw64(n);
        if (loading()) {
            v.clear();
            v.resize(static_cast<std::size_t>(n));
        }
        for (auto &e : v)
            io(e);
    }

    template <class A, class B>
    void
    io(std::pair<A, B> &v)
    {
        io(v.first);
        io(v.second);
    }

    template <class K, class V>
    void
    io(std::map<K, V> &v)
    {
        std::uint64_t n = v.size();
        raw64(n);
        if (saving_) {
            for (auto &kv : v) {
                K k = kv.first;
                io(k);
                io(kv.second);
            }
            return;
        }
        v.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            K k{};
            V val{};
            io(k);
            io(val);
            v.emplace(std::move(k), std::move(val));
        }
    }

    template <class K>
    void
    io(std::set<K> &v)
    {
        std::uint64_t n = v.size();
        raw64(n);
        if (saving_) {
            for (const K &kc : v) {
                K k = kc;
                io(k);
            }
            return;
        }
        v.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            K k{};
            io(k);
            v.insert(std::move(k));
        }
    }

    /** Unordered maps are written in sorted key order (determinism). */
    template <class K, class V>
    void
    io(std::unordered_map<K, V> &v)
    {
        std::uint64_t n = v.size();
        raw64(n);
        if (saving_) {
            std::vector<K> keys;
            keys.reserve(v.size());
            for (const auto &kv : v)
                keys.push_back(kv.first);
            std::sort(keys.begin(), keys.end());
            for (K &k : keys) {
                io(k);
                io(v.at(k));
            }
            return;
        }
        v.clear();
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            K k{};
            V val{};
            io(k);
            io(val);
            v.emplace(std::move(k), std::move(val));
        }
    }

    template <class K>
    void
    io(std::unordered_set<K> &v)
    {
        std::uint64_t n = v.size();
        raw64(n);
        if (saving_) {
            std::vector<K> keys(v.begin(), v.end());
            std::sort(keys.begin(), keys.end());
            for (K &k : keys)
                io(k);
            return;
        }
        v.clear();
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            K k{};
            io(k);
            v.insert(std::move(k));
        }
    }

  private:
    Ar(bool saving, std::vector<std::uint8_t> bytes)
        : saving_(saving), buf_(std::move(bytes))
    {}

    bool saving_;
    std::vector<std::uint8_t> buf_;
    /// Loading source: buf_'s bytes (owning) or a borrowed span.
    const std::uint8_t *rd_ = nullptr;
    std::size_t rd_size_ = 0;
    std::uint64_t pos_ = 0;
};

/** Direction-named aliases (the visitor API's save/load spellings). */
using Ser = Ar;
using Deser = Ar;

/** Convenience: serialize @p v into a fresh byte buffer. */
template <class T>
std::vector<std::uint8_t>
save(T &v)
{
    Ser ar = Ar::saver();
    ar.io(v);
    return ar.takeBytes();
}

/** Convenience: deserialize @p v from @p bytes. */
template <class T>
void
load(T &v, std::vector<std::uint8_t> bytes)
{
    Deser ar = Ar::loader(std::move(bytes));
    ar.io(v);
}

} // namespace emc::ckpt

#endif // EMC_CKPT_SERIAL_HH
