/* Layered normalized min-sum decoding of a lifted quasi-cyclic LDPC code.
 *
 * The compiled twin of the numpy reference in decode.py, bit for bit: int32
 * posteriors, check-to-variable messages scaled by norm_q12 / 4096 and
 * saturated to +-LLR_MAX, and a syndrome check of the hard decision after
 * each sweep over the layers.
 *
 * Entry e of `edges` is the pair (col * zc, shift): lane j of that circulant
 * is codeword position col * zc + (j + shift) % zc.  Layer l owns degrees[l]
 * consecutive entries, and c2v holds its zc * degrees[l] messages lane-major.
 * Build with -DMAX_DEGREE=<largest layer degree>.
 */
#include <stdint.h>

#define LLR_MAX 127

static inline int32_t position(const int32_t *edge, int32_t lane, int32_t zc)
{
    int32_t q = lane + edge[1];
    return edge[0] + (q >= zc ? q - zc : q);
}

static inline int32_t scaled(int32_t mag, int32_t norm_q12)
{
    int64_t s = ((int64_t)mag * norm_q12) >> 12;
    return s < LLR_MAX ? (int32_t)s : LLR_MAX;
}

static int syndrome_ok(const int32_t *app, const int32_t *edges,
                       const int32_t *degrees, int n_layers, int zc)
{
    for (int l = 0; l < n_layers; edges += 2 * degrees[l++])
        for (int j = 0; j < zc; j++) {
            int parity = 0;
            for (int e = 0; e < degrees[l]; e++)
                parity ^= app[position(edges + 2 * e, j, zc)] < 0;
            if (parity)
                return 0;
        }
    return 1;
}

/* Decodes in place: app holds the channel LLRs on entry and the posteriors
 * on return, c2v starts zeroed.  Returns the sweeps run and sets *converged. */
int minsum_decode(int32_t *app, int32_t *c2v, const int32_t *edges,
                  const int32_t *degrees, int n_layers, int zc,
                  int max_iterations, int norm_q12, int early_termination,
                  int *converged)
{
    int32_t pos[MAX_DEGREE], t[MAX_DEGREE];
    int it = 0;

    *converged = 0;
    while (it < max_iterations) {
        const int32_t *edge = edges;
        int32_t *msg = c2v;
        for (int l = 0; l < n_layers; edge += 2 * degrees[l++]) {
            const int d = degrees[l];
            for (int j = 0; j < zc; j++, msg += d) {
                int32_t min1 = INT32_MAX, min2 = INT32_MAX;
                int parity = 0;
                for (int e = 0; e < d; e++) {
                    pos[e] = position(edge + 2 * e, j, zc);
                    t[e] = app[pos[e]] - msg[e];
                    int32_t mag = t[e] < 0 ? -t[e] : t[e];
                    min2 = mag < min1 ? min1 : (mag < min2 ? mag : min2);
                    min1 = mag < min1 ? mag : min1;
                    parity ^= t[e] < 0;
                }
                if (d == 1)
                    min2 = min1;
                const int32_t s1 = scaled(min1, norm_q12), s2 = scaled(min2, norm_q12);
                for (int e = 0; e < d; e++) {
                    int32_t mag = t[e] < 0 ? -t[e] : t[e];
                    int32_t m = mag == min1 ? s2 : s1;
                    m = parity ^ (t[e] < 0) ? -m : m;
                    msg[e] = m;
                    app[pos[e]] = t[e] + m;
                }
            }
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
