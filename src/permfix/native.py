"""The compiled loops of the Monte Carlo engines, in one C library.

One source string holds three loops: `permfix_advance`, which only moves
the replicas of `coupling.run_coupling`, and the ascent/peak and Mallows
counts loops of `altcouplings`.  `permfix_advance` reads and moves the
SplitMix64 states of `rng.VectorStreams`; the two counts loops take
scramble(seed) and a first replica instead and derive each replica's start
state themselves, by the rule of `VectorStreams`, so no state array is
built for them.  Each loop draws the 53-bit words j of its uniforms (the
uniform is the float j 2^-53) and decides on those words as the numpy
bodies do.

On x86-64, `permfix_advance` and `permfix_mallows` also hold bodies that
move one replica per 64-bit lane of AVX-512, with SplitMix64 by lane
multiplies (one helper for both).  `advance_lanes` moves two groups of 8
replicas per step, so that each group's gathers of cuts and event bytes
overlap the other's, while 16 or more remain, then one group of 8;
`mallows_lanes` moves 8 replicas at a time against one broadcast cut per
bit, with no gather.  They are compiled for AVX-512 F and DQ whatever the
build flags, and taken only when the CPU reports both
(`__builtin_cpu_supports`), over the largest multiple of 8 replicas of the
call; the advance takes its lanes only when the run settles nothing.  The
rest, settling runs (r-r), other CPUs and other architectures take the
one-replica loops.  Settling stays there because a settled replica leaves
its loop at once, while a lane would run on until its 7 neighbours settle.
Both leave every replica alike.

Nothing is compiled at import.  The first call of `library()` in a process
loads the library from the per-user cache $XDG_CACHE_HOME/permfix (or
~/.cache/permfix), where one file named by the hash of the source and the
build command is built with `cc` if missing; deleting that directory is
safe, the next run builds it again.  Where it cannot be built or loaded (no
compiler, a compile error, an unwritable cache) `library()` is None and
every engine runs its numpy body instead, with identical results.

Each Monte Carlo routine splits its replicas once per call (`shares`):
one contiguous slice of whole replicas per CPU the process may run on (at
most one per replica), and it picks its engine, a compiled loop or a numpy
body, inside each share.  ctypes releases the interpreter lock around a
foreign call and no replica reads another's stream, so the shares run in
parallel and every count is the same whatever their number.
"""
from __future__ import annotations

import hashlib
import os
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np

SOURCE = r"""
#include <stdint.h>

#ifndef WORD_BITS
#define WORD_BITS 53 /* the bits of a word j; the uniform is j 2^-WORD_BITS */
#endif
#define GOLDEN 0x9E3779B97F4A7C15u
#define MIX1 0xBF58476D1CE4E5B9u /* the multipliers of `scramble` */
#define MIX2 0x94D049BB133111EBu

/* The SplitMix64 output function, `rng.scramble`. */
static uint64_t scramble(uint64_t z)
{
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

/* The next word j of the SplitMix64 stream in state *s. */
static uint64_t next_word(uint64_t *s)
{
    return scramble(*s += GOLDEN) >> (64 - WORD_BITS);
}

/* The start state of replica r's stream, base = scramble(seed):
   scramble(base + (r + 1) GOLDEN) mod 2^64, as `rng.VectorStreams`. */
static uint64_t start_state(uint64_t base, int64_t r)
{
    return scramble(base + ((uint64_t)r + 1) * GOLDEN);
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

/* The lane bodies are compiled for AVX-512 F and DQ whatever the build
   flags; call them only where `has_lanes` reports the CPU has both. */
#define LANES __attribute__((target("avx512f,avx512dq")))
#define INLINE LANES __attribute__((always_inline)) static inline

static int has_lanes(void)
{
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
}

/* `scramble` in each 64-bit lane. */
INLINE __m512i scramble_lanes(__m512i z)
{
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                           _mm512_set1_epi64((long long)MIX1));
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                           _mm512_set1_epi64((long long)MIX2));
    return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/* `next_word` in each lane: the next word j of the stream in state *s. */
INLINE __m512i next_words_lanes(__m512i *s)
{
    *s = _mm512_add_epi64(*s, _mm512_set1_epi64((long long)GOLDEN));
    return _mm512_srli_epi64(scramble_lanes(*s), 64 - WORD_BITS);
}

/* 8 replicas of permfix_advance, one per lane: stream state, X, Y, event byte. */
struct group {
    __m512i s, x, y, ev;
};

/* The cut tables and the event table of one permfix_advance call; dwords
   is the event table's first byte rounded down to a 4-byte boundary, lead
   the bytes between the two. */
struct tables {
    const uint64_t *down_x, *stay_x, *down_y, *stay_y;
    const void *dwords;
    int64_t lead, size;
};

INLINE struct group load_group(const uint64_t *states, const int64_t *xs, const int64_t *ys,
                               const uint8_t *evs)
{
    struct group g;
    g.s = _mm512_loadu_si512(states);
    g.x = _mm512_loadu_si512(xs);
    g.y = _mm512_loadu_si512(ys);
    g.ev = _mm512_cvtepu8_epi64(_mm_loadl_epi64((const __m128i *)evs));
    return g;
}

INLINE void store_group(struct group g, uint64_t *states, int64_t *xs, int64_t *ys, uint8_t *evs)
{
    _mm512_storeu_si512(states, g.s);
    _mm512_storeu_si512(xs, g.x);
    _mm512_storeu_si512(ys, g.y);
    _mm_storel_epi64((__m128i *)evs, _mm512_cvtepi64_epi8(g.ev)); /* the low bytes */
}

/* mx (or my) in each lane: the count of the cuts stay[x], down[x] above j,
   by two gathers and unsigned compares. */
INLINE __m512i cuts_above(__m512i j, __m512i x, const uint64_t *stay, const uint64_t *down)
{
    const __m512i one = _mm512_set1_epi64(1);
    return _mm512_add_epi64(
        _mm512_maskz_mov_epi64(_mm512_cmplt_epu64_mask(j, _mm512_i64gather_epi64(x, stay, 8)), one),
        _mm512_maskz_mov_epi64(_mm512_cmplt_epu64_mask(j, _mm512_i64gather_epi64(x, down, 8)), one));
}

/* One move of permfix_advance with settle = 0 for the 8 replicas of g. */
INLINE void step_group(struct group *g, const struct tables *t)
{
    const __m512i one = _mm512_set1_epi64(1);
    __m512i j = next_words_lanes(&g->s);
    __m512i mx = cuts_above(j, g->x, t->stay_x, t->down_x);
    __m512i my = cuts_above(j, g->y, t->stay_y, t->down_y);
    /* (x size + y) 9 + 3 mx + my + lead; every factor is below 2^32 */
    __m512i at = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_mul_epu32(g->x, _mm512_set1_epi64(9 * t->size)),
                         _mm512_mul_epu32(g->y, _mm512_set1_epi64(9))),
        _mm512_add_epi64(_mm512_add_epi64(_mm512_slli_epi64(mx, 1), mx),
                         _mm512_add_epi64(my, _mm512_set1_epi64(t->lead))));
    /* Entry i is byte (i + lead) % 4 of the aligned dword (i + lead) / 4
       of dwords.  Every dword read holds an entry, so no read leaves the
       aligned dword holding the table's last byte, and an aligned dword
       never crosses a page. */
    __m512i word = _mm512_cvtepu32_epi64(
        _mm512_i64gather_epi32(_mm512_srli_epi64(at, 2), t->dwords, 4));
    g->ev = _mm512_or_si512(
        g->ev, _mm512_srlv_epi64(
            word, _mm512_slli_epi64(_mm512_and_si512(at, _mm512_set1_epi64(3)), 3)));
    g->x = _mm512_sub_epi64(_mm512_add_epi64(g->x, one), mx);
    g->y = _mm512_sub_epi64(_mm512_add_epi64(g->y, one), my);
}

/* permfix_advance's moves with settle = 0 for count replicas, a multiple
   of 8: two groups of 8 per step loop, so that each group's gathers
   overlap the other's, while 16 or more replicas remain; then one group. */
LANES static void advance_lanes(uint64_t *states, int64_t *xs, int64_t *ys, uint8_t *evs,
                                int64_t count, int64_t steps, const struct tables *t)
{
    int64_t r = 0;
    for (; r + 16 <= count; r += 16) {
        struct group a = load_group(states + r, xs + r, ys + r, evs + r);
        struct group b = load_group(states + r + 8, xs + r + 8, ys + r + 8, evs + r + 8);
        for (int64_t k = 0; k < steps; k++) {
            step_group(&a, t);
            step_group(&b, t);
        }
        store_group(a, states + r, xs + r, ys + r, evs + r);
        store_group(b, states + r + 8, xs + r + 8, ys + r + 8, evs + r + 8);
    }
    if (r < count) {
        struct group a = load_group(states + r, xs + r, ys + r, evs + r);
        for (int64_t k = 0; k < steps; k++)
            step_group(&a, t);
        store_group(a, states + r, xs + r, ys + r, evs + r);
    }
}

/* permfix_mallows's count for count replicas first .. first + count - 1,
   count a multiple of 8 (first any), one replica per lane.  Every lane
   compares its word with the same cut, so the cut is broadcast; the bits
   X_{n-1}, X_n are lane masks, and diff drops by one in the lanes where
   both are set. */
LANES static int64_t mallows_lanes(uint64_t base, int64_t first, int64_t count, int64_t N,
                                   int64_t K, const uint64_t *cuts, uint64_t skip)
{
    const __m512i golden = _mm512_set1_epi64((long long)GOLDEN), one = _mm512_set1_epi64(1);
    const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    int64_t differ = 0;
    for (int64_t r = first; r < first + count; r += 8) {
        /* `start_state` of replica r + lane, plus skip */
        __m512i rank = _mm512_add_epi64(_mm512_set1_epi64((long long)r + 1), lane);
        __m512i s = _mm512_add_epi64(
            scramble_lanes(_mm512_add_epi64(_mm512_set1_epi64((long long)base),
                                            _mm512_mullo_epi64(rank, golden))),
            _mm512_set1_epi64((long long)skip));
        __mmask8 prev = N == 1 ? 0xFF : _mm512_cmplt_epu64_mask(
            next_words_lanes(&s), _mm512_set1_epi64((long long)cuts[N - 1]));
        __m512i diff = _mm512_maskz_mov_epi64(prev, one);
        for (int64_t n = N + 1; n <= K; n++) {
            __mmask8 bit = _mm512_cmplt_epu64_mask(
                next_words_lanes(&s), _mm512_set1_epi64((long long)cuts[n - 1]));
            diff = _mm512_mask_sub_epi64(diff, prev & bit, diff, one);
            prev = bit;
        }
        differ += __builtin_popcount(_mm512_test_epi64_mask(diff, diff));
    }
    return differ;
}
#endif

/* `coupling._advance_numpy`: advance count replicas by steps moves, in
   place (SplitMix64 states, states xs, ys, event bytes evs), on 53-bit
   words j against grid numerators.  The four cut tables hold size cuts,
   and events 9 bytes per pair of states (`coupling._event_table`).  A move
   is `step`'s: mx in {0, 1, 2} counts the cuts above j, x' = x + 1 - mx.
   settle is 0 unless X's tables equal Y's (`coupling._advance_compiled`);
   then a replica with x = y whose byte holds every bit of settle is
   settled: every later move keeps x = y and sets no bit its byte lacks, so
   the loop leaves it before drawing its next word.
   On x86-64 CPUs with AVX-512 F and DQ, runs with settle = 0 move the
   first count - count % 8 replicas in lanes (`advance_lanes`: 16 at a
   time, two groups of 8 per step, then one group of 8) and the rest by
   the loop below.  Settling runs stay on that loop: its replicas leave
   one by one, and a lane could not leave before its 7 neighbours. */
void permfix_advance(uint64_t *states, int64_t *xs, int64_t *ys, uint8_t *evs,
                     int64_t count, int64_t steps,
                     const uint64_t *down_x, const uint64_t *stay_x,
                     const uint64_t *down_y, const uint64_t *stay_y, const uint8_t *events,
                     int64_t size, unsigned settle)
{
    int64_t first = 0;
#if defined(__x86_64__) && defined(__GNUC__)
    if (!settle && has_lanes()) {
        const uintptr_t lead = (uintptr_t)events & 3;
        const struct tables t = {down_x, stay_x, down_y, stay_y,
                                 (const void *)((uintptr_t)events - lead), (int64_t)lead, size};
        first = count - count % 8;
        advance_lanes(states, xs, ys, evs, first, steps, &t);
    }
#endif
    for (int64_t r = first; r < count; r++) {
        uint64_t s = states[r];
        uint64_t x = xs[r], y = ys[r];
        unsigned ev = evs[r];
        for (int64_t k = 0; k < steps; k++) {
            if (settle && x == y && (ev & settle) == settle)
                break;
            uint64_t j = next_word(&s);
            uint64_t mx = (uint64_t)(j < stay_x[x]) + (j < down_x[x]);
            uint64_t my = (uint64_t)(j < stay_y[y]) + (j < down_y[y]);
            ev |= events[(x * size + y) * 9 + 3 * mx + my];
            x += 1 - mx;
            y += 1 - my;
        }
        states[r] = s;
        xs[r] = (int64_t)x;
        ys[r] = (int64_t)y;
        evs[r] = (uint8_t)ev;
    }
}

/* The ascent/peak batch over replicas first .. first + count - 1 of the
   streams with base = scramble(seed): replica r compares words
   j_n < j_{n+1} of its stream, as the uniforms compare, until its first
   peak T or its first tie.  joint holds 64 x 64 counts, joint[64 S + T] of
   the replicas with first ascent S and first peak T.  Returns the number
   of replicas dropped for a tie, or -1 when a replica has neither after 64
   words. */
int64_t permfix_ascent_peak(uint64_t base, int64_t first, int64_t count, int64_t *joint)
{
    int64_t ties = 0;
    for (int64_t r = first; r < first + count; r++) {
        uint64_t s = start_state(base, r);
        uint64_t curr = next_word(&s);
        int64_t ascent = 0; /* S, 0 while unset */
        for (int64_t n = 1;; n++) {
            if (n == 64)
                return -1;
            uint64_t next = next_word(&s);
            if (curr == next) {
                ties++;
                break;
            }
            if (curr > next && ascent) { /* the first descent after S is a peak */
                joint[64 * ascent + n]++;
                break;
            }
            if (curr < next && !ascent)
                ascent = n;
            curr = next;
        }
    }
    return ties;
}

/* The Mallows replicas with S_N != S_K among replicas first ..
   first + count - 1 of the streams with base = scramble(seed): replica r
   draws the bits X_n = 1{j < cuts[n - 1]} for n = N..K from its stream,
   started past the N - 2 words of X_2..X_{N-1} (X_1 = 1 draws none, so at
   N = 1, X_N = 1, and nothing is skipped), and counts it when
   X_N - (X_N X_{N+1} + ... + X_{K-1} X_K) is nonzero.
   On x86-64 CPUs with AVX-512 F and DQ, the first count - count % 8
   replicas run 8 at a time (`mallows_lanes`) and the rest by the loop
   below. */
int64_t permfix_mallows(uint64_t base, int64_t first, int64_t count, int64_t N, int64_t K,
                        const uint64_t *cuts)
{
    uint64_t skip = N > 1 ? (uint64_t)(N - 2) * GOLDEN : 0; /* `VectorStreams.skip` */
    int64_t differ = 0, lanes = 0;
#if defined(__x86_64__) && defined(__GNUC__)
    if (has_lanes()) {
        lanes = count - count % 8;
        differ = mallows_lanes(base, first, lanes, N, K, cuts, skip);
    }
#endif
    for (int64_t r = first + lanes; r < first + count; r++) {
        uint64_t s = start_state(base, r) + skip;
        int64_t prev = N == 1 || next_word(&s) < cuts[N - 1];
        int64_t diff = prev;
        for (int64_t n = N + 1; n <= K; n++) {
            int64_t bit = next_word(&s) < cuts[n - 1];
            diff -= prev & bit;
            prev = bit;
        }
        differ += diff != 0;
    }
    return differ;
}
"""
BUILD = ("cc", "-O2", "-shared", "-fPIC", "-x", "c", "-")  # source on stdin


def library_path() -> Path:
    """The compiled library in the per-user cache, built there if missing.

    The name carries the hash of the source and the build command, so an
    edit to either builds a new file; the build writes a process-unique
    name and renames it into place, so concurrent first runs do not clash.
    """
    import subprocess

    key = hashlib.sha256("\0".join((SOURCE, *BUILD)).encode()).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "permfix"
    path = cache / f"loops-{key}.so"
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        tmp = cache / f"{path.name}.{os.getpid()}.tmp"
        try:
            subprocess.run(
                [*BUILD, "-o", str(tmp)], input=SOURCE.encode(), capture_output=True, check=True
            )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return path


@lru_cache(maxsize=None)
def library():
    """The compiled loops as a ctypes library with every signature declared,
    or None when it cannot be built or loaded; decided once per process.
    The loops index their arrays unchecked: their callers check sizes."""
    import ctypes
    import subprocess

    try:
        lib = ctypes.CDLL(str(library_path()))
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None

    def array(dtype, ndim=1):
        return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags="C_CONTIGUOUS")

    words, ints, i64 = array(np.uint64), array(np.int64), ctypes.c_int64
    lib.permfix_advance.argtypes = [
        words, ints, ints, array(np.uint8), i64, i64, words, words, words, words,
        array(np.uint8), i64, ctypes.c_uint,
    ]
    lib.permfix_advance.restype = None
    lib.permfix_ascent_peak.argtypes = [ctypes.c_uint64, i64, i64, array(np.int64, 2)]
    lib.permfix_ascent_peak.restype = i64
    lib.permfix_mallows.argtypes = [ctypes.c_uint64, i64, i64, i64, i64, words]
    lib.permfix_mallows.restype = i64
    return lib


def cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, or
    the machine's count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def shares(fn, count: int) -> list:
    """[fn(a, b) for each share [a, b)], in share order.

    The shares split range(count) into k = min(`cpus()`, count) contiguous
    slices of near-equal size.  The calling thread runs the last share and
    one thread each runs the others, so a compiled loop called by fn runs
    on k CPUs at once; with k = 1 fn(0, count) runs inline and no thread
    starts.  Every thread is joined before this returns or raises: an
    exception raised in any share is raised again here, that of the first
    failing share.
    """
    k = min(cpus(), count)
    if k <= 1:
        return [fn(0, count)]
    bounds = [count * i // k for i in range(k + 1)]
    results: list = [None] * k
    errors: list = [None] * k

    def run(i: int) -> None:
        try:
            results[i] = fn(bounds[i], bounds[i + 1])
        except BaseException as error:  # raised again in the caller
            errors[i] = error

    started = []
    try:
        for i in range(k - 1):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            started.append(thread)
        run(k - 1)
    finally:
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results
