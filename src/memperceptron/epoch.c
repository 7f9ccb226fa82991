/* One training epoch of each model, and the epoch's shuffles, compiled;
 * `train.py` calls these through ctypes.
 *
 * Each epoch function replays, for every realization, the samples in its
 * row of `perm` with exactly the float operations of the numpy steps in
 * `slp.py` and `mlp.py` (same operands, same order, no contraction), so
 * both engines produce the same bytes.  Realizations run in blocks of
 * LANES, the last one ragged: each operation of a sample runs for every
 * lane of the block before the next operation, so the lanes' independent
 * dependency chains overlap in the core instead of one step waiting on
 * the previous one.  Parameters are updated in place: add the increment,
 * then clamp to [-bound, bound].  The per-realization error summed over
 * the epoch goes to `totals`.
 *
 * In single write mode an increment with |inc| >= window_a in any lane
 * stops the epoch and the function returns 1; the caller restores the
 * parameters and replays the epoch in numpy, which raises or finishes it.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define LANES 8

/* numpy's public bitgen_t (numpy/random/bitgen.h); calling its functions
 * advances the Python generator's own state, buffered halves included. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's random_interval for max >= 1: masked rejection on [0, max]. */
static uint64_t random_interval(bitgen_t *g, uint64_t max)
{
    uint64_t mask = max, value;
    for (int s = 1; s < 64; s <<= 1)
        mask |= mask >> s;
    if (max <= 0xffffffffULL)
        while ((value = (g->next_uint32(g->state) & mask)) > max)
            ;
    else
        while ((value = (g->next_uint64(g->state) & mask)) > max)
            ;
    return value;
}

/* Row r of perm becomes gens[r]'s rng.permutation(n): the Fisher-Yates of
 * numpy's Generator.shuffle, with the same draws. */
void shuffle_rows(int64_t R, int64_t n, bitgen_t **gens, int64_t *perm)
{
    for (int64_t r = 0; r < R; r++) {
        int64_t *row = perm + r * n;
        for (int64_t i = 0; i < n; i++)
            row[i] = i;
        for (int64_t i = n - 1; i > 0; i--) {
            int64_t j = (int64_t)random_interval(gens[r], (uint64_t)i), swap = row[i];
            row[i] = row[j];
            row[j] = swap;
        }
    }
}

/* np.clip(x, -b, b): the lower bound first, then the upper, a tie keeping x.
 * A NaN in x or b comes out NaN (fmin/fmax would drop it) and +/-inf clamps. */
static double clamp(double x, double b)
{
    if (isnan(b))
        return b;
    x = x < -b ? -b : x;
    return x > b ? b : x;
}

/* Helpers inlined into each block, so that a constant lane count gives lane
 * loops of a known trip count: one lane costs what the plain loop costs,
 * and a full block's loops can use the vector unit, lane by lane. */
#define INLINE static inline __attribute__((always_inline))

/* Rows r0 .. r0 + nb - 1 of the (R, size) array a, to the lane-major copy q
 * (element e of lane b at q[e * LANES + b]) if in, else back from it. */
INLINE void lanes(int64_t nb, int64_t r0, double *a, int64_t size, double *q, int in)
{
    for (int64_t e = 0; e < size; e++)
        for (int64_t b = 0; b < nb; b++) {
            double *row = a + (r0 + b) * size + e;
            if (in)
                q[e * LANES + b] = *row;
            else
                *row = q[e * LANES + b];
        }
}

/* Adds inc[b] to lane b of q, then clamps.  In single mode an increment
 * with |inc| >= window_a in any lane returns 1 and writes nothing. */
INLINE int apply(int64_t nb, double *q, const double *inc, double bound, double window_a,
                 int64_t single)
{
    if (single) {
        int over = 0;
        for (int64_t b = 0; b < nb; b++)
            over |= fabs(inc[b]) >= window_a;
        if (over)
            return 1;
    }
    for (int64_t b = 0; b < nb; b++)
        q[b] = clamp(q[b] + inc[b], bound);
    return 0;
}

/* p[0] is (R, n_in + 1) weights, the bias weight last.  The block of nb
 * lanes from realization r0 works in scratch, lane-major: its weights, then
 * the sample's inputs. */
INLINE int slp_block(int64_t nb, int64_t r0, int64_t n, int64_t n_in, const double *xs,
                     const double *ts, const int64_t *perm, double **p, double *totals,
                     double bound, double window_a, int64_t single, double eta, double *scratch)
{
    double *w = scratch, *x = w + (n_in + 1) * LANES;
    double t[LANES], out[LANES], base[LANES], inc[LANES], total[LANES];
    lanes(nb, r0, p[0], n_in + 1, w, 1);
    for (int64_t b = 0; b < nb; b++)
        total[b] = 0.0;
    for (int64_t k = 0; k < n; k++) {
        for (int64_t b = 0; b < nb; b++) {
            int64_t idx = perm[(r0 + b) * n + k];
            t[b] = ts[idx];
            for (int64_t i = 0; i < n_in; i++)
                x[i * LANES + b] = xs[idx * n_in + i];
        }
        for (int64_t b = 0; b < nb; b++)
            out[b] = w[b] * x[b];
        for (int64_t i = 1; i < n_in; i++)
            for (int64_t b = 0; b < nb; b++)
                out[b] = out[b] + w[i * LANES + b] * x[i * LANES + b];
        for (int64_t b = 0; b < nb; b++)
            out[b] = 1.0 / (1.0 + exp(-(out[b] + w[n_in * LANES + b])));
        for (int64_t b = 0; b < nb; b++) {
            double diff = t[b] - out[b];
            base[b] = (eta * diff) * (out[b] * (1.0 - out[b]));
            total[b] += (0.5 * diff) * diff;
        }
        for (int64_t i = 0; i < n_in; i++) {
            for (int64_t b = 0; b < nb; b++)
                inc[b] = base[b] * x[i * LANES + b];
            if (apply(nb, w + i * LANES, inc, bound, window_a, single))
                return 1;
        }
        if (apply(nb, w + n_in * LANES, base, bound, window_a, single))
            return 1;
    }
    lanes(nb, r0, p[0], n_in + 1, w, 0);
    for (int64_t b = 0; b < nb; b++)
        totals[r0 + b] = total[b];
    return 0;
}

/* Allocates the blocks' scratch for the call; returns 2 if that fails. */
int slp_epoch(int64_t R, int64_t n, int64_t n_in, const double *xs, const double *ts,
              const int64_t *perm, double **p, double *totals, double bound, double window_a,
              int64_t single, double eta)
{
    double *scratch = malloc((size_t)((2 * n_in + 1) * LANES) * sizeof *scratch);
    if (scratch == NULL)
        return 2;
    int status = 0;
#define SLP(nb) slp_block(nb, r0, n, n_in, xs, ts, perm, p, totals, bound, window_a, single, eta, \
                          scratch)
    for (int64_t r0 = 0; r0 < R && !status; r0 += LANES)
        status = R - r0 >= LANES ? SLP(LANES) : R - r0 == 1 ? SLP(1) : SLP(R - r0);
    free(scratch);
    return status;
}

/* The 2L arrays of p, each (R, size) for its size below, to or from q. */
INLINE void mlp_lanes(int64_t nb, int64_t r0, double **p, int64_t L, const int64_t *sizes,
                      double *q, int in)
{
    for (int64_t a = 0; a < 2 * L; a++) {
        int64_t size = a < L ? sizes[a] * sizes[a + 1] : sizes[a - L + 1];
        lanes(nb, r0, p[a], size, q, in);
        q += size * LANES;
    }
}

/* p[l] is (R, sizes[l], sizes[l + 1]) synapse gammas and p[L + l] is
 * (R, sizes[l + 1]) node biases, `nodes` of them per realization.  The
 * block works in scratch, lane-major: its parameters in the order of p,
 * the sample's inputs, each layer's net input, output and activation
 * derivative, then three vectors of the widest layer for the backward pass. */
INLINE int mlp_block(int64_t nb, int64_t r0, int64_t n, int64_t n_in, const double *xs,
                     const double *ts, const int64_t *perm, double **p, double *totals,
                     double bound, double window_a, int64_t single, double eta, int64_t L,
                     const int64_t *sizes, double b_scale, double kt, double m_prime, double r_off,
                     double r_on, double d, double *scratch, int64_t weights, int64_t nodes,
                     int64_t widest)
{
    double *biases = scratch + weights * LANES, *x = biases + nodes * LANES, *fwd = x + n_in * LANES;
    double *up = fwd + 3 * nodes * LANES, *delta = up + widest * LANES, *next = delta + widest * LANES;
    double total[LANES], t[LANES], acc[LANES], inc[LANES];
    double err[LANES] = {0.0}; /* set at j = 0; the zeros only quiet -Wmaybe-uninitialized */
    mlp_lanes(nb, r0, p, L, sizes, scratch, 1);
    for (int64_t b = 0; b < nb; b++)
        total[b] = 0.0;
    for (int64_t k = 0; k < n; k++) {
        for (int64_t b = 0; b < nb; b++) {
            int64_t idx = perm[(r0 + b) * n + k];
            t[b] = ts[idx];
            for (int64_t i = 0; i < n_in; i++)
                x[i * LANES + b] = xs[idx * n_in + i];
        }
        const double *in = x;
        double *g = scratch, *bias = biases, *s = fwd;
        for (int64_t l = 0; l < L; l++) {
            int64_t ni = sizes[l], no = sizes[l + 1];
            double *v = s + no * LANES, *dv = v + no * LANES;
            for (int64_t j = 0; j < no; j++) {
                for (int64_t b = 0; b < nb; b++)
                    acc[b] = (b_scale * g[j * LANES + b]) * in[b];
                for (int64_t i = 1; i < ni; i++)
                    for (int64_t b = 0; b < nb; b++)
                        acc[b] = acc[b] + (b_scale * g[(i * no + j) * LANES + b]) * in[i * LANES + b];
                for (int64_t b = 0; b < nb; b++) {
                    double bj = bias[j * LANES + b];
                    double m = r_off * (1.0 - bj / d) + r_on * (bj / d);
                    double drive = acc[b] > 0.0 ? acc[b] : 0.0;
                    s[j * LANES + b] = acc[b];
                    v[j * LANES + b] = m * acc[b] - kt * (drive * drive);
                    dv[j * LANES + b] = m - (2.0 * kt) * drive;
                }
            }
            in = v;
            g += ni * no * LANES;
            bias += no * LANES;
            s = dv + no * LANES;
        }
        /* in is the network output; up is the pull on a layer's outputs,
         * delta the pull on its net inputs */
        int64_t nout = sizes[L];
        for (int64_t j = 0; j < nout; j++)
            for (int64_t b = 0; b < nb; b++) {
                double diff = t[b] - in[j * LANES + b], sq = (0.5 * diff) * diff;
                err[b] = j ? err[b] + sq : sq;
                up[j * LANES + b] = diff;
                delta[j * LANES + b] = diff * in[(nout + j) * LANES + b];
            }
        for (int64_t b = 0; b < nb; b++)
            total[b] += err[b];
        for (int64_t l = L - 1; l >= 0; l--) {
            int64_t ni = sizes[l], no = sizes[l + 1];
            g -= ni * no * LANES;
            bias -= no * LANES;
            s -= 3 * no * LANES;
            const double *prev = l ? s - 2 * ni * LANES : x;
            if (l) /* with the weights before this step's update */
                for (int64_t i = 0; i < ni; i++) {
                    for (int64_t b = 0; b < nb; b++)
                        acc[b] = delta[b] * (b_scale * g[i * no * LANES + b]);
                    for (int64_t j = 1; j < no; j++)
                        for (int64_t b = 0; b < nb; b++)
                            acc[b] = acc[b] + delta[j * LANES + b] * (b_scale * g[(i * no + j) * LANES + b]);
                    for (int64_t b = 0; b < nb; b++)
                        next[i * LANES + b] = acc[b];
                }
            for (int64_t i = 0; i < ni; i++)
                for (int64_t j = 0; j < no; j++) {
                    for (int64_t b = 0; b < nb; b++)
                        inc[b] = ((eta * delta[j * LANES + b]) * prev[i * LANES + b]) / b_scale;
                    if (apply(nb, g + (i * no + j) * LANES, inc, bound, window_a, single))
                        return 1;
                }
            for (int64_t j = 0; j < no; j++) {
                for (int64_t b = 0; b < nb; b++)
                    inc[b] = ((eta * up[j * LANES + b]) * m_prime) * s[j * LANES + b];
                if (apply(nb, bias + j * LANES, inc, bound, window_a, single))
                    return 1;
            }
            if (l) {
                double *spare = up;
                up = next;
                next = spare;
                for (int64_t i = 0; i < ni; i++)
                    for (int64_t b = 0; b < nb; b++)
                        delta[i * LANES + b] = s[(i - ni) * LANES + b] * up[i * LANES + b];
            }
        }
    }
    mlp_lanes(nb, r0, p, L, sizes, scratch, 0);
    for (int64_t b = 0; b < nb; b++)
        totals[r0 + b] = total[b];
    return 0;
}

/* Allocates the blocks' scratch for the call; returns 2 if that fails. */
int mlp_epoch(int64_t R, int64_t n, int64_t n_in, const double *xs, const double *ts,
              const int64_t *perm, double **p, double *totals, double bound, double window_a,
              int64_t single, double eta, int64_t L, const int64_t *sizes, double b_scale,
              double kt, double m_prime, double r_off, double r_on, double d)
{
    int64_t weights = 0, nodes = 0, widest = 0;
    for (int64_t l = 0; l < L; l++) {
        weights += sizes[l] * sizes[l + 1];
        nodes += sizes[l + 1];
        widest = sizes[l + 1] > widest ? sizes[l + 1] : widest;
    }
    int64_t width = weights + nodes + n_in + 3 * nodes + 3 * widest; /* doubles per lane */
    double *scratch = malloc((size_t)(width * LANES) * sizeof *scratch);
    if (scratch == NULL)
        return 2;
    int status = 0;
#define MLP(nb) mlp_block(nb, r0, n, n_in, xs, ts, perm, p, totals, bound, window_a, single, eta, \
                          L, sizes, b_scale, kt, m_prime, r_off, r_on, d, scratch, weights, nodes, widest)
    for (int64_t r0 = 0; r0 < R && !status; r0 += LANES)
        status = R - r0 >= LANES ? MLP(LANES) : R - r0 == 1 ? MLP(1) : MLP(R - r0);
    free(scratch);
    return status;
}
