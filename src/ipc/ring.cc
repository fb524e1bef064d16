#include "ipc/ring.h"

#include <algorithm>
#include <cstring>

#include "runtime/journal.h" // crc32

namespace specinfer {
namespace ipc {

namespace {

constexpr uint64_t kRingMagic = 0x5350454352494e47ULL; // "SPECRING"
constexpr size_t kFrameHeader = 8; // u32 len + u32 crc

inline size_t
align8(size_t n)
{
    return (n + 7) & ~size_t{7};
}

inline bool
isPow2(size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

} // namespace

size_t
ShmRing::footprint(size_t capacity)
{
    // RingShared already counts one data byte; keep the layout
    // simple and just add the full capacity after the header.
    return sizeof(RingShared) + capacity;
}

bool
ShmRing::attach(void *mem, size_t capacity, bool init)
{
    if (mem == nullptr || !isPow2(capacity))
        return false;
    RingShared *s = static_cast<RingShared *>(mem);
    if (init) {
        s->capacity = capacity;
        s->head.store(0, std::memory_order_relaxed);
        s->tail.store(0, std::memory_order_relaxed);
        s->poisoned.store(0, std::memory_order_relaxed);
        // Publish the formatted ring: attachers spin on the magic.
        std::atomic_thread_fence(std::memory_order_release);
        s->magic = kRingMagic;
    } else {
        if (s->magic != kRingMagic || s->capacity != capacity)
            return false;
    }
    shared_ = s;
    return true;
}

void
ShmRing::copyIn(uint64_t at, const void *src, size_t len)
{
    // A zero-length frame may carry a null payload, and memcpy's
    // pointers must be valid even for zero bytes.
    if (len == 0)
        return;
    const uint64_t mask = shared_->capacity - 1;
    const size_t off = static_cast<size_t>(at & mask);
    const size_t first =
        std::min(len, static_cast<size_t>(shared_->capacity) - off);
    std::memcpy(shared_->data + off, src, first);
    if (first < len)
        std::memcpy(shared_->data,
                    static_cast<const uint8_t *>(src) + first,
                    len - first);
}

void
ShmRing::copyOut(uint64_t at, void *dst, size_t len) const
{
    if (len == 0)
        return;
    const uint64_t mask = shared_->capacity - 1;
    const size_t off = static_cast<size_t>(at & mask);
    const size_t first =
        std::min(len, static_cast<size_t>(shared_->capacity) - off);
    std::memcpy(dst, shared_->data + off, first);
    if (first < len)
        std::memcpy(static_cast<uint8_t *>(dst) + first,
                    shared_->data, len - first);
}

bool
ShmRing::push(const void *payload, size_t len)
{
    if (shared_ == nullptr ||
        shared_->poisoned.load(std::memory_order_relaxed) != 0)
        return false;
    const size_t need = align8(kFrameHeader + len);
    if (need > shared_->capacity)
        return false; // can never fit
    const uint64_t head = shared_->head.load(std::memory_order_relaxed);
    const uint64_t tail = shared_->tail.load(std::memory_order_acquire);
    if (need > shared_->capacity - (head - tail))
        return false; // backpressure: consumer must drain first
    const uint32_t len32 = static_cast<uint32_t>(len);
    const uint32_t crc = runtime::crc32(payload, len);
    copyIn(head, &len32, sizeof(len32));
    copyIn(head + 4, &crc, sizeof(crc));
    copyIn(head + kFrameHeader, payload, len);
    // Release-publish: the consumer's acquire load of head makes
    // every byte above visible before the frame becomes poppable.
    shared_->head.store(head + need, std::memory_order_release);
    return true;
}

PopStatus
ShmRing::pop(std::vector<uint8_t> &out)
{
    if (shared_ == nullptr)
        return PopStatus::Empty;
    if (shared_->poisoned.load(std::memory_order_relaxed) != 0)
        return PopStatus::Corrupt;
    const uint64_t tail = shared_->tail.load(std::memory_order_relaxed);
    const uint64_t head = shared_->head.load(std::memory_order_acquire);
    if (head == tail)
        return PopStatus::Empty;
    uint32_t len32 = 0, crc = 0;
    copyOut(tail, &len32, sizeof(len32));
    copyOut(tail + 4, &crc, sizeof(crc));
    const size_t need = align8(kFrameHeader + len32);
    if (need > shared_->capacity || need > head - tail) {
        // Framing lies about the published extent: a torn or
        // malicious write. Fail-stop.
        shared_->poisoned.store(1, std::memory_order_relaxed);
        return PopStatus::Corrupt;
    }
    out.resize(len32);
    copyOut(tail + kFrameHeader, out.data(), len32);
    if (runtime::crc32(out.data(), out.size()) != crc) {
        shared_->poisoned.store(1, std::memory_order_relaxed);
        return PopStatus::Corrupt;
    }
    shared_->tail.store(tail + need, std::memory_order_release);
    return PopStatus::Ok;
}

size_t
ShmRing::usedBytes() const
{
    if (shared_ == nullptr)
        return 0;
    const uint64_t head = shared_->head.load(std::memory_order_acquire);
    const uint64_t tail = shared_->tail.load(std::memory_order_acquire);
    return static_cast<size_t>(head - tail);
}

size_t
ShmRing::freeBytes() const
{
    if (shared_ == nullptr)
        return 0;
    return static_cast<size_t>(shared_->capacity) - usedBytes();
}

bool
ShmRing::poisoned() const
{
    return shared_ != nullptr &&
           shared_->poisoned.load(std::memory_order_relaxed) != 0;
}

} // namespace ipc
} // namespace specinfer
