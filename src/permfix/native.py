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

On x86-64, `permfix_advance` also holds a body that moves 8 replicas per
step, one per 64-bit lane of AVX-512 (`advance_lanes`): SplitMix64 by lane
multiplies, the cuts and the event bytes by gathers.  It is compiled for
AVX-512 F and DQ whatever the build flags, and taken only when the CPU
reports both (`__builtin_cpu_supports`) and the run settles nothing, over
the largest multiple of 8 replicas; the rest, settling runs (r-r), other
CPUs and other architectures take the one-replica loop.  Settling stays
there because a settled replica leaves its loop at once, while a lane
would run on until its 7 neighbours settle.  Both leave every replica
alike.

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

/* permfix_advance's moves with settle = 0 for count replicas, a multiple
   of 8, one replica per 64-bit lane: SplitMix64 by lane multiplies, the
   four cuts by gathers and mx, my from unsigned compares.  Compiled for
   AVX-512 whatever the build flags; call it only where the CPU has it. */
__attribute__((target("avx512f,avx512dq")))
static void advance_lanes(uint64_t *states, int64_t *xs, int64_t *ys, uint8_t *evs,
                          int64_t count, int64_t steps,
                          const uint64_t *down_x, const uint64_t *stay_x,
                          const uint64_t *down_y, const uint64_t *stay_y,
                          const uint8_t *events, int64_t size)
{
    const __m512i one = _mm512_set1_epi64(1), golden = _mm512_set1_epi64((long long)GOLDEN);
    const __m512i mul1 = _mm512_set1_epi64((long long)MIX1), mul2 = _mm512_set1_epi64((long long)MIX2);
    const __m512i row = _mm512_set1_epi64(9 * size), nine = _mm512_set1_epi64(9);
    /* dwords: the table's first byte rounded down to a 4-byte boundary */
    const uintptr_t lead = (uintptr_t)events & 3;
    const void *dwords = (const void *)((uintptr_t)events - lead);
    const __m512i leads = _mm512_set1_epi64((long long)lead), bytes = _mm512_set1_epi64(3);
    for (int64_t r = 0; r < count; r += 8) {
        __m512i s = _mm512_loadu_si512(states + r);
        __m512i x = _mm512_loadu_si512(xs + r), y = _mm512_loadu_si512(ys + r);
        __m512i ev = _mm512_cvtepu8_epi64(_mm_loadl_epi64((const __m128i *)(evs + r)));
        for (int64_t k = 0; k < steps; k++) {
            s = _mm512_add_epi64(s, golden);
            __m512i z = _mm512_mullo_epi64(_mm512_xor_si512(s, _mm512_srli_epi64(s, 30)), mul1);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), mul2);
            __m512i j = _mm512_srli_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 31)),
                                          64 - WORD_BITS);
            __m512i mx = _mm512_add_epi64(
                _mm512_maskz_mov_epi64(
                    _mm512_cmplt_epu64_mask(j, _mm512_i64gather_epi64(x, stay_x, 8)), one),
                _mm512_maskz_mov_epi64(
                    _mm512_cmplt_epu64_mask(j, _mm512_i64gather_epi64(x, down_x, 8)), one));
            __m512i my = _mm512_add_epi64(
                _mm512_maskz_mov_epi64(
                    _mm512_cmplt_epu64_mask(j, _mm512_i64gather_epi64(y, stay_y, 8)), one),
                _mm512_maskz_mov_epi64(
                    _mm512_cmplt_epu64_mask(j, _mm512_i64gather_epi64(y, down_y, 8)), one));
            /* (x size + y) 9 + 3 mx + my + lead; every factor is below 2^32 */
            __m512i at = _mm512_add_epi64(
                _mm512_add_epi64(_mm512_mul_epu32(x, row), _mm512_mul_epu32(y, nine)),
                _mm512_add_epi64(_mm512_add_epi64(_mm512_slli_epi64(mx, 1), mx),
                                 _mm512_add_epi64(my, leads)));
            /* Entry i is byte (i + lead) % 4 of the aligned dword (i + lead) / 4
               of dwords.  Every dword read holds an entry, so no read leaves
               the aligned dword holding the table's last byte, and an aligned
               dword never crosses a page. */
            __m512i word = _mm512_cvtepu32_epi64(
                _mm512_i64gather_epi32(_mm512_srli_epi64(at, 2), dwords, 4));
            ev = _mm512_or_si512(
                ev, _mm512_srlv_epi64(word, _mm512_slli_epi64(_mm512_and_si512(at, bytes), 3)));
            x = _mm512_sub_epi64(_mm512_add_epi64(x, one), mx);
            y = _mm512_sub_epi64(_mm512_add_epi64(y, one), my);
        }
        _mm512_storeu_si512(states + r, s);
        _mm512_storeu_si512(xs + r, x);
        _mm512_storeu_si512(ys + r, y);
        _mm_storel_epi64((__m128i *)(evs + r), _mm512_cvtepi64_epi8(ev)); /* the low bytes */
    }
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
   first count - count % 8 replicas 8 at a time (`advance_lanes`) and the
   rest by the loop below.  Settling runs stay on that loop: its replicas
   leave one by one, and a lane could not leave before its 7 neighbours. */
void permfix_advance(uint64_t *states, int64_t *xs, int64_t *ys, uint8_t *evs,
                     int64_t count, int64_t steps,
                     const uint64_t *down_x, const uint64_t *stay_x,
                     const uint64_t *down_y, const uint64_t *stay_y, const uint8_t *events,
                     int64_t size, unsigned settle)
{
    int64_t first = 0;
#if defined(__x86_64__) && defined(__GNUC__)
    if (!settle && __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
        first = count - count % 8;
        advance_lanes(states, xs, ys, evs, first, steps, down_x, stay_x, down_y, stay_y,
                      events, size);
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
   X_N - (X_N X_{N+1} + ... + X_{K-1} X_K) is nonzero. */
int64_t permfix_mallows(uint64_t base, int64_t first, int64_t count, int64_t N, int64_t K,
                        const uint64_t *cuts)
{
    uint64_t skip = N > 1 ? (uint64_t)(N - 2) * GOLDEN : 0; /* `VectorStreams.skip` */
    int64_t differ = 0;
    for (int64_t r = first; r < first + count; r++) {
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
