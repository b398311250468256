/**
 * @file
 * The two scheduler indexes that keep MtProcessor's two-phase path at
 * O(log N) work per event instead of a scan over every thread:
 *
 *  - BudgetHeap: the blocked, loaded threads ordered by the spin-clock
 *    value at which their two-phase waiting budget runs out, so the
 *    next eviction candidate is the heap top.
 *  - ThreadQueue: the software thread queue split into one FCFS list
 *    per distinct required context space, so a refill visits only
 *    threads whose context could fit the free registers.
 *
 * Both are intrusive arrays over thread ids, sized once per run:
 * steady-state operation never allocates.
 */

#ifndef RR_MULTITHREAD_SCHED_INDEX_HH
#define RR_MULTITHREAD_SCHED_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace rr::mt {

/**
 * Indexed binary min-heap of thread ids ordered by (key, id): equal
 * keys pop the lowest id first. erase() of any member is O(log N).
 */
class BudgetHeap
{
  public:
    /** Empty the heap and size it for ids in [0, @p ids). */
    void
    reset(unsigned ids)
    {
        heap_.clear();
        heap_.reserve(ids);
        pos_.assign(ids, kAbsent);
        key_.assign(ids, 0);
    }

    unsigned size() const { return static_cast<unsigned>(heap_.size()); }

    /** The id with the smallest (key, id). */
    unsigned
    top() const
    {
        rr_assert(!heap_.empty(), "top() on empty budget heap");
        return heap_.front();
    }

    uint64_t key(unsigned id) const { return key_[id]; }

    void
    push(unsigned id, uint64_t key)
    {
        rr_assert(pos_[id] == kAbsent, "thread ", id, " already indexed");
        key_[id] = key;
        pos_[id] = size();
        heap_.push_back(id);
        siftUp(pos_[id]);
    }

    void
    erase(unsigned id)
    {
        const unsigned at = pos_[id];
        rr_assert(at != kAbsent, "thread ", id, " not indexed");
        pos_[id] = kAbsent;
        const unsigned last = heap_.back();
        heap_.pop_back();
        if (last == id)
            return;
        place(at, last);
        siftUp(at);
        siftDown(pos_[last]);
    }

  private:
    static constexpr unsigned kAbsent = ~0u;

    bool
    before(unsigned a, unsigned b) const
    {
        return key_[a] < key_[b] || (key_[a] == key_[b] && a < b);
    }

    void
    place(unsigned at, unsigned id)
    {
        heap_[at] = id;
        pos_[id] = at;
    }

    void
    siftUp(unsigned at)
    {
        const unsigned id = heap_[at];
        while (at > 0) {
            const unsigned parent = (at - 1) / 2;
            if (!before(id, heap_[parent]))
                break;
            place(at, heap_[parent]);
            at = parent;
        }
        place(at, id);
    }

    void
    siftDown(unsigned at)
    {
        const unsigned id = heap_[at];
        const unsigned n = size();
        for (;;) {
            unsigned child = 2 * at + 1;
            if (child >= n)
                break;
            if (child + 1 < n && before(heap_[child + 1], heap_[child]))
                ++child;
            if (!before(heap_[child], id))
                break;
            place(at, heap_[child]);
            at = child;
        }
        place(at, id);
    }

    std::vector<unsigned> heap_; ///< heap order
    std::vector<unsigned> pos_;  ///< id -> heap slot (kAbsent = out)
    std::vector<uint64_t> key_;  ///< id -> key while indexed
};

/**
 * The software thread queue as one intrusive FCFS list per space
 * class (threads with the same required context space). Each entry
 * carries a sequence number stamped at push(), so merging the class
 * lists by sequence number recovers the single FCFS queue.
 */
class ThreadQueue
{
  public:
    static constexpr unsigned kEnd = ~0u;

    /**
     * Empty the queue and size it for @p classOf.size() threads;
     * thread t belongs to class classOf[t] < @p classes.
     */
    void
    reset(std::vector<unsigned> classOf, unsigned classes)
    {
        classOf_ = std::move(classOf);
        const std::size_t n = classOf_.size();
        next_.assign(n, kEnd);
        prev_.assign(n, kEnd);
        seq_.assign(n, 0);
        head_.assign(classes, kEnd);
        tail_.assign(classes, kEnd);
        size_ = 0;
        nextSeq_ = 0;
    }

    bool empty() const { return size_ == 0; }
    unsigned size() const { return size_; }
    unsigned classes() const { return static_cast<unsigned>(head_.size()); }

    /** First queued thread of class @p cls, or kEnd. */
    unsigned head(unsigned cls) const { return head_[cls]; }

    /** The thread queued after @p tid in its class, or kEnd. */
    unsigned next(unsigned tid) const { return next_[tid]; }

    /** Append @p tid at the tail of the queue. */
    void
    push(unsigned tid)
    {
        const unsigned cls = classOf_[tid];
        seq_[tid] = nextSeq_++;
        next_[tid] = kEnd;
        prev_[tid] = tail_[cls];
        if (tail_[cls] == kEnd)
            head_[cls] = tid;
        else
            next_[tail_[cls]] = tid;
        tail_[cls] = tid;
        ++size_;
    }

    /** Unlink queued thread @p tid. */
    void
    erase(unsigned tid)
    {
        const unsigned cls = classOf_[tid];
        if (prev_[tid] == kEnd)
            head_[cls] = next_[tid];
        else
            next_[prev_[tid]] = next_[tid];
        if (next_[tid] == kEnd)
            tail_[cls] = prev_[tid];
        else
            prev_[next_[tid]] = prev_[tid];
        --size_;
    }

    /**
     * Of the candidates @p cursor[0..count) (kEnd = none), the index
     * of the one queued earliest, or kEnd when all are kEnd.
     */
    unsigned
    earliest(const unsigned *cursor, unsigned count) const
    {
        unsigned best = kEnd;
        for (unsigned c = 0; c < count; ++c) {
            if (cursor[c] != kEnd &&
                (best == kEnd || seq_[cursor[c]] < seq_[cursor[best]]))
                best = c;
        }
        return best;
    }

    /** Every queued thread in FCFS order. */
    std::vector<uint32_t>
    fcfs() const
    {
        std::vector<unsigned> cursor(head_);
        std::vector<uint32_t> out;
        out.reserve(size_);
        for (;;) {
            const unsigned c = earliest(cursor.data(), classes());
            if (c == kEnd)
                return out;
            out.push_back(cursor[c]);
            cursor[c] = next_[cursor[c]];
        }
    }

  private:
    std::vector<unsigned> classOf_; ///< tid -> space class
    std::vector<unsigned> next_, prev_; ///< links within a class
    std::vector<uint64_t> seq_; ///< tid -> push stamp, lower = earlier
    std::vector<unsigned> head_, tail_; ///< per class
    unsigned size_ = 0;
    uint64_t nextSeq_ = 0;
};

} // namespace rr::mt

#endif // RR_MULTITHREAD_SCHED_INDEX_HH
