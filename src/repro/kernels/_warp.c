/* WarpLDA's per-row MH chain (Alg. 2, Eq. 7) and proposal scatter in C.
 *
 * Both functions run over one bucket chunk: an R x L matrix of flat token
 * indices whose padding cells repeat the row's last token and are marked
 * off by `mask`.  Every random number is drawn by the caller in NumPy and
 * passed in, so the chain consumes exactly the slab path's RNG stream.
 * The arithmetic is the slab path's, operation for operation, in IEEE
 * double precision; build with -ffp-contract=off so no multiply-add is
 * fused and the accept decisions stay bit-identical to NumPy's.
 *
 * Neither function touches Python objects: callers load them through
 * ctypes, which releases the GIL for the duration of each call.
 */
#include <stdint.h>
#include <stdlib.h>

/* Accept/reject the M stored proposals of every real cell of the chunk.
 *
 * Row r's delayed counts C_r are rebuilt from `assignments[tokens[r]]` into
 * a K-length scratch (plus `external[rows[r]]` at lookup time when given),
 * the M steps run against them, the final topics go to `current` (all R x L
 * cells, padding keeps its gathered value) and are scattered back into
 * `assignments`.  The scratch is cleared entry by entry, O(L) per row.
 * `prior` is the K-length prior (alpha), or NULL for the constant
 * `prior_scalar` (beta).  Returns the number of accepted moves; -1 if the
 * scratch cannot be allocated, -2 if a topic lies outside [0, K).
 */
int64_t warp_chain(
    int64_t R, int64_t L, int64_t K, int64_t M, int64_t N,
    const int64_t *tokens, const uint8_t *mask, const int64_t *rows,
    const int64_t *external, const double *prior, double prior_scalar,
    const double *stale, double beta_sum, const double *uniforms,
    const int64_t *proposals, int64_t *assignments, int64_t *current)
{
    double *counts = calloc((size_t)(K > 0 ? K : 1), sizeof(double));
    int64_t accepted = 0;
    if (counts == NULL)
        return -1;
    for (int64_t r = 0; r < R; r++) {
        const int64_t *row_tokens = tokens + r * L;
        const uint8_t *row_mask = mask + r * L;
        const int64_t *ext = external ? external + rows[r] * K : NULL;
        int64_t *row_current = current + r * L;
        for (int64_t l = 0; l < L; l++) {
            row_current[l] = assignments[row_tokens[l]];
            if (!row_mask[l])
                continue;
            if (row_current[l] < 0 || row_current[l] >= K) {
                accepted = -2;
                goto clear;
            }
            counts[row_current[l]] += 1.0;
        }
        for (int64_t l = 0; l < L; l++) {
            if (!row_mask[l])
                continue;
            int64_t s = row_current[l];
            for (int64_t step = 0; step < M; step++) {
                int64_t t = proposals[step * N + row_tokens[l]];
                if (t < 0 || t >= K) {
                    accepted = -2;
                    goto clear;
                }
                double count_t = ext ? counts[t] + (double)ext[t] : counts[t];
                double count_s = ext ? counts[s] + (double)ext[s] : counts[s];
                double prior_t = prior ? prior[t] : prior_scalar;
                double prior_s = prior ? prior[s] : prior_scalar;
                double ratio = ((count_t + prior_t) * (stale[s] + beta_sum))
                    / ((count_s + prior_s) * (stale[t] + beta_sum));
                if (uniforms[(step * R + r) * L + l] < ratio) {
                    s = t;
                    accepted++;
                }
            }
            row_current[l] = s;
        }
        /* assignments still hold the counted topics: clear, then scatter. */
        for (int64_t l = 0; l < L; l++)
            if (row_mask[l])
                counts[assignments[row_tokens[l]]] = 0.0;
        for (int64_t l = 0; l < L; l++)
            if (row_mask[l])
                assignments[row_tokens[l]] = row_current[l];
    }
clear:
    free(counts);
    return accepted;
}

/* One step of the random-positioning mixture proposal (Sec. 4.3): each
 * real cell proposes its row's topic at `positions` when its uniform falls
 * below the row's count weight, else its pre-drawn prior topic; the
 * proposal is written to `proposals_step[token]`.
 */
void warp_mixture(
    int64_t R, int64_t L, const int64_t *tokens, const uint8_t *mask,
    const int64_t *current, const double *weight, const double *uniforms,
    const int64_t *positions, const int64_t *prior_topics,
    int64_t *proposals_step)
{
    for (int64_t r = 0; r < R; r++) {
        for (int64_t i = r * L; i < (r + 1) * L; i++) {
            if (!mask[i])
                continue;
            proposals_step[tokens[i]] = uniforms[i] < weight[r]
                ? current[r * L + positions[i]]
                : prior_topics[i];
        }
    }
}
