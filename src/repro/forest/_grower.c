/* Optional C hot path for CART growth and packed-forest traversal.
 *
 * Compiled on demand by repro/forest/_cgrower.py (plain `cc -shared`, no
 * Python headers needed) and driven through ctypes.  `repro_grow_tree`
 * grows one whole tree per call and is bit-identical to the reference
 * grower in repro/forest/tree.py (`presort=False`): same node arrays,
 * same RNG consumption.  Every floating-point result it produces is
 * computed the way the reference computes it:
 *
 *  - node sums Σy and Σy² replicate numpy's pairwise summation, which is
 *    what np.add.reduce does on a contiguous float64 array
 *    (`repro_pairwise_sum`);
 *  - split-search prefix sums run left-to-right exactly like np.cumsum
 *    (a strict sequential fold, never pairwise);
 *  - the combined-SSE expression evaluates each elementwise operation in
 *    the same order as the reference ufunc chain, and the build flags
 *    forbid FMA contraction (-ffp-contract=off) so no two operations are
 *    fused into a differently-rounded one;
 *  - the argmin scan visits candidates position-major (position, then
 *    feature column) and keeps the first minimum, matching np.argmin over
 *    the reference (n_candidates, m) layout, including tie-breaks;
 *  - the gain test squares the parent sum with libm pow(), as
 *    np.float64 ** 2 does (pow is not always x * x);
 *  - per-node feature draws replicate Generator.choice(d, m,
 *    replace=False) on the caller's bit generator (`repro_choice`).
 *
 * The loader cross-checks both replicas against the installed numpy
 * before using this library, and falls back to the reference grower on
 * any mismatch.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t ip; /* numpy intp on LP64 platforms */

/* bitgen_t.next_uint32 of a numpy BitGenerator (its ctypes interface). */
typedef uint32_t (*next_uint32_fn)(void *state);

/* numpy's pairwise_sum: below 8 elements a sequential sum from -0.0; up
 * to 128 elements eight interleaved accumulators combined as a balanced
 * tree, then the tail; above that, recursive halving at a multiple of 8. */
static double pairwise_sum(const double *a, ip n)
{
    if (n < 8) {
        double res = -0.0;
        for (ip i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        ip i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    ip n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* np.add.reduce of a contiguous float64 array: the pairwise sum added to
 * the ufunc's identity, +0.0 (so an all -0.0 input sums to +0.0). */
double repro_pairwise_sum(const double *a, ip n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* numpy's random_bounded_uint64(state, 0, rng, 0, 0) for rng < 2**32:
 * Lemire's rejection method over next_uint32. */
static uint64_t bounded(next_uint32_fn next, void *st, uint64_t rng)
{
    if (rng == 0)
        return 0;
    if (rng == 0xFFFFFFFFULL)
        return next(st);
    const uint32_t rng_excl = (uint32_t)rng + 1;
    uint64_t m = (uint64_t)next(st) * rng_excl;
    uint32_t leftover = (uint32_t)(m & 0xFFFFFFFFULL);
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)next(st) * rng_excl;
            leftover = (uint32_t)(m & 0xFFFFFFFFULL);
        }
    }
    return m >> 32;
}

/* Generator.choice(d, m, replace=False) into out[0:m].
 *
 * numpy tail-shuffles an arange when d > 10000 and m > d // 50, and
 * otherwise runs Floyd's algorithm followed by a Fisher-Yates shuffle of
 * the m picks.  Floyd's output depends only on set membership, so a flag
 * array stands in for numpy's hash set.  `work` holds d zeroed entries
 * and is zeroed again on return.  Requires d < 2**32.
 */
void repro_choice(next_uint32_fn next, void *st, ip d, ip m, ip *out,
                  ip *work)
{
    if (d > 10000 && m > d / 50) {
        for (ip i = 0; i < d; i++)
            work[i] = i;
        const ip first = d - m > 1 ? d - m : 1;
        for (ip i = d - 1; i >= first; i--) {
            const ip j = (ip)bounded(next, st, (uint64_t)i);
            const ip t = work[j];
            work[j] = work[i];
            work[i] = t;
        }
        memcpy(out, work + (d - m), (size_t)m * sizeof(ip));
        memset(work, 0, (size_t)d * sizeof(ip));
        return;
    }
    for (ip j = d - m; j < d; j++) {
        const ip val = (ip)bounded(next, st, (uint64_t)j);
        const ip pick = work[val] ? j : val;
        work[pick] = 1;
        out[j - d + m] = pick;
    }
    for (ip i = m - 1; i >= 1; i--) {
        const ip j = (ip)bounded(next, st, (uint64_t)i);
        const ip t = out[j];
        out[j] = out[i];
        out[i] = t;
    }
    for (ip i = 0; i < m; i++)
        work[out[i]] = 0;
}

/* Packed-forest traversal: route every (tree, row) lane to its leaf.
 *
 * `feature`/`threshold`/`left`/`right` are the packed SoA node arrays
 * (global child ids, feature < 0 marks a leaf), `X` is the row-major
 * (n_rows, d) query matrix, `roots` lists the root node id of each of the
 * T trees to traverse.  Writes the global leaf id of lane (t, i) to
 * out[t*n_rows + i].  Pure comparisons — bit-identical to the numpy
 * level-synchronous loop by construction.
 */
void repro_traverse(const ip *feature, const double *threshold,
                    const ip *left, const ip *right, const double *X,
                    ip n_rows, ip d, const ip *roots, ip T, ip *out)
{
    for (ip t = 0; t < T; t++) {
        const ip root = roots[t];
        ip *out_t = out + t * n_rows;
        for (ip i = 0; i < n_rows; i++) {
            const double *row = X + i * d;
            ip node = root;
            ip f = feature[node];
            while (f >= 0) {
                node = (row[f] <= threshold[node]) ? left[node] : right[node];
                f = feature[node];
            }
            out_t[i] = node;
        }
    }
}

/* A volatile exponent keeps the compiler from folding pow(x, 2.0) into
 * x * x, which differs from libm pow in the last bit for some inputs. */
static volatile double two = 2.0;

/* Best split of one node over the candidate features.
 *
 * The node's samples occupy columns [start, start + k) of every row of
 * `order` (row stride n); row f lists them in ascending X[:, f] order.
 * Returns the winning column of `feats` (-1 when no value-boundary
 * candidate passes the gain test) and its threshold in *thr.
 */
static ip best_split(const double *XT, const double *y, const ip *order,
                     ip n, ip start, ip k, const ip *feats, ip m, ip msl,
                     double *thr)
{
    const ip lo = msl;
    const ip hi = k - msl;
    int found = 0;
    double best = 0.0;
    ip best_pos = 0;
    ip best_col = 0;
    double best_tot_s = 0.0;
    double best_tot_q = 0.0;

    for (ip col = 0; col < m; col++) {
        const ip f = feats[col];
        const ip *ordf = order + f * n + start;
        const double *Xf = XT + f * n;

        /* Sequential totals == csum[-1]/csq[-1] of the reference. */
        double tot_s = 0.0;
        double tot_q = 0.0;
        for (ip i = 0; i < k; i++) {
            const double yv = y[ordf[i]];
            const double sq = yv * yv;
            tot_s = tot_s + yv;
            tot_q = tot_q + sq;
        }

        /* Stream the prefixes; candidate split position i keeps the first
         * i sorted samples on the left and is valid only where the sorted
         * feature value changes. */
        double acc_s = 0.0;
        double acc_q = 0.0;
        for (ip i = 1; i <= hi; i++) {
            const double yv = y[ordf[i - 1]];
            const double sq = yv * yv;
            acc_s = acc_s + yv;
            acc_q = acc_q + sq;
            if (i < lo)
                continue;
            const double f_lo = Xf[ordf[i - 1]];
            const double f_hi = Xf[ordf[i]];
            if (f_hi == f_lo)
                continue;
            /* combined = (q_l - s_l*s_l/n_l) + (q_r - s_r*s_r/n_r),
             * evaluated in the reference's exact operation order. */
            const double nl = (double)i;
            const double nr = (double)k - nl;
            double t = acc_s * acc_s;
            t = t / nl;
            const double left_sse = acc_q - t;
            const double sr = tot_s - acc_s;
            double u = sr * sr;
            u = u / nr;
            const double qr = tot_q - acc_q;
            const double right_sse = qr - u;
            const double comb = left_sse + right_sse;
            const ip pos = i - lo;
            /* First minimum in (position, column) order == np.argmin over
             * the reference (n_candidates, m) block. */
            if (!found || comb < best || (comb == best && pos < best_pos)) {
                found = 1;
                best = comb;
                best_pos = pos;
                best_col = col;
                best_tot_s = tot_s;
                best_tot_q = tot_q;
            }
        }
    }
    if (!found)
        return -1;

    /* Gain test: node_sse = total_sq - total_sum ** 2 / n. */
    const double node_sse = best_tot_q - pow(best_tot_s, two) / (double)k;
    if (node_sse - best <= 1e-12)
        return -1;

    const ip f = feats[best_col];
    const ip *ordf = order + f * n + start;
    const double *Xf = XT + f * n;
    const ip split_i = lo + best_pos;
    const double lo_val = Xf[ordf[split_i - 1]];
    const double hi_val = Xf[ordf[split_i]];
    double t = 0.5 * (lo_val + hi_val);
    /* Midpoints of adjacent floats can collapse onto the upper value; the
     * left side must satisfy value <= thr < upper value. */
    if (!(lo_val <= t && t < hi_val))
        t = lo_val;
    *thr = t;
    return best_col;
}

/* Grow one whole tree by an explicit-stack DFS, in the reference's order.
 *
 * `order` is (d + 1, n): row f is the stable argsort of X[:, f] and row d
 * is 0..n-1.  It is partitioned in place as the tree grows, so each node
 * owns one column range [start, start + k) of every row and row d keeps
 * its samples in ascending-id order.  Nodes are popped last-in first-out
 * with the left child pushed before the right; child ids are assigned at
 * split time; stats and the feature draw happen at pop.  `next`/`state`
 * are the bit generator used for the draws (unused when m >= d), and the
 * caller holds its lock.  `max_depth` < 0 means unlimited.
 *
 * The eight output arrays need room for 2n - 1 nodes.  Returns the node
 * count, or -1 when scratch memory cannot be allocated.
 */
ip repro_grow_tree(const double *XT, const double *y, ip n, ip d, ip m,
                   ip *order, ip msl, ip mss, ip max_depth,
                   next_uint32_fn next, void *state,
                   ip *feature, double *threshold, ip *left, ip *right,
                   double *value, double *variance, ip *count,
                   double *impurity)
{
    ip *stack = malloc((size_t)(4 * n) * sizeof(ip));
    ip *feats = malloc((size_t)d * sizeof(ip));
    ip *work = calloc((size_t)d, sizeof(ip));
    ip *tmp = malloc((size_t)n * sizeof(ip));
    double *ybuf = malloc((size_t)(2 * n) * sizeof(double));
    unsigned char *inleft = calloc((size_t)n, 1);
    ip n_nodes = -1;
    if (!stack || !feats || !work || !tmp || !ybuf || !inleft)
        goto done;
    double *yybuf = ybuf + n;
    const ip rows = d + 1;
    for (ip f = 0; f < d; f++)
        feats[f] = f;

    feature[0] = -1;
    threshold[0] = 0.0;
    left[0] = -1;
    right[0] = -1;
    n_nodes = 1;
    /* Stack entries are (node, start, k, depth); at most n are pending,
     * since pending nodes own disjoint, non-empty column ranges. */
    stack[0] = 0;
    stack[1] = 0;
    stack[2] = n;
    stack[3] = 0;
    ip top = 1;
    while (top > 0) {
        top--;
        const ip node = stack[4 * top];
        const ip start = stack[4 * top + 1];
        const ip k = stack[4 * top + 2];
        const ip depth = stack[4 * top + 3];
        const ip *idx = order + d * n + start;

        for (ip i = 0; i < k; i++) {
            const double yv = y[idx[i]];
            ybuf[i] = yv;
            yybuf[i] = yv * yv;
        }
        const double s = repro_pairwise_sum(ybuf, k);
        const double q = repro_pairwise_sum(yybuf, k);
        const double kd = (double)k;
        const double mean = s / kd;
        /* max(x, 0.0) as Python evaluates it. */
        const double var = q / kd - mean * mean;
        const double imp = q - s * s / kd;
        value[node] = mean;
        variance[node] = (0.0 > var) ? 0.0 : var;
        count[node] = k;
        impurity[node] = (0.0 > imp) ? 0.0 : imp;

        if (k < mss || (max_depth >= 0 && depth >= max_depth) ||
            impurity[node] <= 1e-12)
            continue;
        if (m < d)
            repro_choice(next, state, d, m, feats, work);
        if (2 * msl > k)
            continue;

        double thr;
        const ip col = best_split(XT, y, order, n, start, k, feats, m, msl,
                                  &thr);
        if (col < 0)
            continue;
        const ip f = feats[col];
        const double *Xf = XT + f * n;
        ip n_left = 0;
        for (ip i = 0; i < k; i++)
            n_left += (Xf[idx[i]] <= thr);
        /* Mirrors the reference's degenerate-threshold guard. */
        if (n_left == 0 || n_left == k)
            continue;

        const ip li = n_nodes;
        const ip ri = n_nodes + 1;
        n_nodes += 2;
        feature[node] = f;
        threshold[node] = thr;
        left[node] = li;
        right[node] = ri;
        for (ip c = li; c <= ri; c++) {
            feature[c] = -1;
            threshold[c] = 0.0;
            left[c] = -1;
            right[c] = -1;
        }

        /* Stable in-place partition of every row's column range:
         * [left block | right block], within-block order preserved.  Each
         * value is stored to both sides and only the matching cursor
         * advances: branch-free, since the side is data-dependent (seg[nl]
         * is safe to overwrite because nl <= i). */
        for (ip i = 0; i < k; i++)
            inleft[idx[i]] = (Xf[idx[i]] <= thr);
        for (ip r = 0; r < rows; r++) {
            ip *seg = order + r * n + start;
            ip nl = 0;
            ip nr = 0;
            for (ip i = 0; i < k; i++) {
                const ip v = seg[i];
                const ip side = inleft[v];
                seg[nl] = v;
                tmp[nr] = v;
                nl += side;
                nr += 1 - side;
            }
            memcpy(seg + nl, tmp, (size_t)nr * sizeof(ip));
        }
        for (ip i = 0; i < k; i++)
            inleft[idx[i]] = 0;

        stack[4 * top] = li;
        stack[4 * top + 1] = start;
        stack[4 * top + 2] = n_left;
        stack[4 * top + 3] = depth + 1;
        top++;
        stack[4 * top] = ri;
        stack[4 * top + 1] = start + n_left;
        stack[4 * top + 2] = k - n_left;
        stack[4 * top + 3] = depth + 1;
        top++;
    }

done:
    free(stack);
    free(feats);
    free(work);
    free(tmp);
    free(ybuf);
    free(inleft);
    return n_nodes;
}
