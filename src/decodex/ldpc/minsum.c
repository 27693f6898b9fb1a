/* Layered normalized min-sum decoding of a lifted quasi-cyclic LDPC code.
 *
 * The compiled twin of the numpy reference in decode.py, bit for bit:
 * check-to-variable messages scaled by norm_q12 / 4096 and saturated to
 * +-LLR_MAX, and a syndrome check of the hard decision after each sweep over
 * the layers.
 *
 * The loops run edge-major.  Entry e of `edges` is the pair (col * zc,
 * shift): lane j of that circulant is codeword position
 * col * zc + (j + shift) % zc, that is the contiguous runs [shift, zc) and
 * then [0, shift) of its block-column.  Layer l owns degrees[l] consecutive
 * entries.  Per layer, each circulant's two runs are copied into a
 * contiguous row t[e], whose tail lanes [zc, zcp) hold 0, zcp being zc
 * rounded up to a multiple of LANE_BLOCK.  The layer is then updated one
 * block of LANE_BLOCK lanes at a time across all its circulants: a first
 * pass folds every circulant's variable-to-check messages into the block's
 * two smallest magnitudes and sign parity, which stay in registers, and a
 * second pass recomputes them and writes the new messages and posteriors.
 * Finally every row is copied back.  c2v holds the layer's messages in rows
 * of zcp lanes, one per circulant, so a block never spans two rows; a tail
 * lane's message and posterior stay 0.  gcc vectorizes the block loops at
 * -O3, into an AVX2 clone (one 16-lane register per block) and a portable
 * default clone (SSE2 on x86-64, two registers) of minsum_decode in one
 * library, and glibc's ifunc resolver picks one when the library loads.
 * A layer's circulants share no column, so gathering the whole layer before
 * scattering it back is the same as updating lane by lane.
 *
 * Everything is int16: the posteriors, the per-call scratch and c2v.  That
 * is exact: with int8 channel LLRs a posterior stays within
 * 128 + 127 * (column degree), below 2^15 for every bundled base graph.
 * decode.py converts its int32 posteriors to int16 once before the call and
 * back once after it.  Build with -DMAX_DEGREE=<largest layer degree>,
 * -DMAX_ZC=<largest lifting size> and -DLANE_BLOCK=<lanes per block>.
 */
#include <stdint.h>
#include <string.h>

#define LLR_MAX 127
/* The longest row: MAX_ZC rounded up to whole lane blocks. */
#define MAX_ZCP ((MAX_ZC + LANE_BLOCK - 1) / LANE_BLOCK * LANE_BLOCK)

/* Copies circulant (col * zc, s)'s lanes from the posteriors a into t, so
 * that t[j] is a[(j + s) % zc]: the runs [s, zc) and then [0, s). */
static inline void gather(int16_t *restrict t, const int16_t *restrict a, int s, int zc)
{
    memcpy(t, a + s, (size_t)(zc - s) * sizeof *t);
    memcpy(t + zc - s, a, (size_t)s * sizeof *t);
}

/* The inverse of gather: writes t back into the posteriors a. */
static inline void scatter(int16_t *restrict a, const int16_t *restrict t, int s, int zc)
{
    memcpy(a + s, t, (size_t)(zc - s) * sizeof *t);
    memcpy(a, t + zc - s, (size_t)s * sizeof *t);
}

static inline int16_t scaled(int16_t mag, int32_t norm_q12)
{
    int32_t s = (mag * norm_q12) >> 12;
    return s < LLR_MAX ? (int16_t)s : LLR_MAX;
}

static int syndrome_ok(const int16_t *app, const int32_t *edges,
                       const int32_t *degrees, int n_layers, int zc)
{
    int16_t parity[MAX_ZC], t[MAX_ZC];

    for (int l = 0; l < n_layers; edges += 2 * degrees[l++]) {
        for (int j = 0; j < zc; j++)
            parity[j] = 0;
        for (int e = 0; e < degrees[l]; e++) {
            gather(t, app + edges[2 * e], edges[2 * e + 1], zc);
            for (int j = 0; j < zc; j++)
                parity[j] ^= t[j];
        }
        int16_t any = 0;
        for (int j = 0; j < zc; j++)
            any |= parity[j];
        if (any < 0)
            return 0;
    }
    return 1;
}

/* Decodes in place: app holds the channel LLRs on entry and the posteriors
 * on return, and c2v, one row of zcp lanes per entry of edges, starts
 * zeroed.  norm_q12 lies in [0, 4096].  Returns the sweeps run and sets
 * *converged.  The clones need ifunc, so glibc (__GLIBC__ comes in through
 * <stdint.h>): elsewhere, and under -DMINSUM_NO_CLONES, only the default
 * body is built. */
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(MINSUM_NO_CLONES)
__attribute__((target_clones("avx2", "default")))
#endif
int minsum_decode(int16_t *app, int16_t *c2v, const int32_t *edges,
                  const int32_t *degrees, int n_layers, int zc,
                  int max_iterations, int norm_q12, int early_termination,
                  int *converged)
{
    int16_t t[MAX_DEGREE][MAX_ZCP];
    const int zcp = (zc + LANE_BLOCK - 1) / LANE_BLOCK * LANE_BLOCK;
    int it = 0;

    /* gather fills lanes [0, zc) of a row.  The tail lanes stay 0: their
     * messages start at 0, and so every update of them adds 0. */
    for (int e = 0; e < MAX_DEGREE; e++)
        memset(t[e] + zc, 0, (size_t)(zcp - zc) * sizeof t[e][0]);
    *converged = 0;
    while (it < max_iterations) {
        const int32_t *edge = edges;
        int16_t *msg = c2v;
        for (int l = 0; l < n_layers; edge += 2 * degrees[l++]) {
            const int d = degrees[l];
            for (int e = 0; e < d; e++)
                gather(t[e], app + edge[2 * e], edge[2 * e + 1], zc);
            for (int b = 0; b < zcp; b += LANE_BLOCK) {
                int16_t min1[LANE_BLOCK], min2[LANE_BLOCK], parity[LANE_BLOCK];
                int16_t s1[LANE_BLOCK], s2[LANE_BLOCK];
                for (int j = 0; j < LANE_BLOCK; j++) {
                    min1[j] = min2[j] = INT16_MAX;
                    parity[j] = 0;
                }
                /* Fold each variable-to-check message t - m into the two
                 * smallest magnitudes and the sign parity. */
                for (int e = 0; e < d; e++) {
                    const int16_t *tb = t[e] + b, *m = msg + e * zcp + b;
                    for (int j = 0; j < LANE_BLOCK; j++) {
                        int16_t v = (int16_t)(tb[j] - m[j]);
                        int16_t mag = v < 0 ? -v : v;
                        int16_t lo = min1[j] > mag ? mag : min1[j];
                        int16_t hi = min1[j] > mag ? min1[j] : mag;
                        min2[j] = min2[j] < hi ? min2[j] : hi;
                        min1[j] = lo;
                        parity[j] ^= v;
                    }
                }
                if (d == 1)
                    memcpy(min2, min1, sizeof min2);
                for (int j = 0; j < LANE_BLOCK; j++) {
                    s1[j] = scaled(min1[j], norm_q12);
                    s2[j] = scaled(min2[j], norm_q12);
                }
                /* Write the new messages and posteriors. */
                for (int e = 0; e < d; e++) {
                    int16_t *tb = t[e] + b, *m = msg + e * zcp + b;
                    for (int j = 0; j < LANE_BLOCK; j++) {
                        int16_t v = (int16_t)(tb[j] - m[j]);
                        int16_t mag = v < 0 ? -v : v;
                        int16_t s = mag == min1[j] ? s2[j] : s1[j];
                        int16_t neg = (int16_t)(parity[j] ^ v) >> 15; /* -1 if negative */
                        s = (int16_t)((s ^ neg) - neg);
                        m[j] = s;
                        tb[j] = (int16_t)(v + s);
                    }
                }
            }
            for (int e = 0; e < d; e++)
                scatter(app + edge[2 * e], t[e], edge[2 * e + 1], zc);
            msg += d * zcp;
        }
        it++;
        if (early_termination || it == max_iterations) {
            *converged = syndrome_ok(app, edges, degrees, n_layers, zc);
            if (*converged && early_termination)
                break;
        }
    }
    return it;
}
