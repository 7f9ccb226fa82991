/* The training run of both perceptrons, their scoring, and the
 * realizations' random streams: numpy's PCG64 seeding, draws and shuffles.
 * `train.py` calls these through ctypes, and the plain loops of
 * `tests/oracles.py` are their spec: a run repeats their float operations
 * (same operands, same order, no contraction), so it gives their bytes.
 *
 * A run trains R realizations online for `epochs` epochs.  Realizations run
 * in lane blocks, SLP_LANES wide for the SLP and MLP_LANES for the MLP, the
 * last ones ragged (see blocks): each operation of a sample runs for every
 * lane of the block before the next operation, so the lanes' independent
 * dependency chains overlap in the core instead of one step waiting on the
 * previous one.  A block loads its streams and parameters once.  Each epoch
 * it draws its lanes' permutations of the samples, each from its lane's
 * stream, the lanes' draws interleaved and all but the last few without a
 * branch (see permutations).  It presents the samples in that order, each
 * through the model's forward half (slp_forward or mlp_forward) and then its
 * backward half (slp_backward or mlp_backward), and writes each lane's
 * summed error to histories[r, e].  At the end it stores parameters and
 * streams back.
 * A parameter is written by adding its increment, then clamping to
 * [-bound, bound].  `score` runs the forward halves alone, in blocks of the
 * same lanes, on a batch of samples: the outputs a trained model gives.
 * The MLP's blocks are built twice, for AVX2 and for the default target, and
 * a run takes the AVX2 copy where the CPU has it (see avx2).  Both copies
 * make every lane's float operations in the same order, with no
 * contraction, so they give the same bytes.
 *
 * The SLP writes each weight with one pulse, so an increment with |inc| >=
 * window_a is a window violation: the weight is not written, and the run
 * reports the first violation in the order (epoch, sample, realization,
 * weight) in where[0..3], with its increment in *inc.  A block stops after
 * the sample of the first violation found so far, since no later one can
 * come first.  The MLP writes bursts of pulses, which land in full.
 *
 * A run cuts its realizations into pieces: one below two lane blocks, else
 * at most PIECES of whole lane blocks, the fewest blocks per piece that make
 * PIECES enough, so the cut depends on the model and R alone and any ragged
 * block is in the last piece.  The caller and, where the process may use two
 * CPUs, one more thread take the pieces in turn, each the next one as soon
 * as it is done with its last, so a core that runs slower for a while trains
 * fewer pieces instead of holding up the run; the bytes are the same on one
 * CPU and on two.  Each piece stops its blocks at its own first violation,
 * so after a violation a stream ends where its piece's block stopped; the
 * run names the smallest key of all pieces.  A run keeps no state outside
 * its arguments and its own scratch, so calls on disjoint arrays can run at
 * once.
 */
#include <math.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SLP_LANES 8  /* at 16, a prototype's SLP ran slower */
#define MLP_LANES 16 /* the widest lane block, which sizes the lane arrays */
#define PIECES 16    /* the most pieces a run is cut into */

/* A realization's PCG64 stream is a row of STREAM words holding the fields
 * of numpy's PCG64.state: the 128-bit state and increment, each as its high
 * then its low word, then has_uint32 and uinteger, the buffered half of an
 * output that a 32-bit draw left. */
#define STREAM 6

typedef unsigned __int128 u128;
typedef struct {
    u128 state, inc;
    uint64_t has_uint32, uinteger;
} pcg64;

#define PCG_MULT ((u128)2549297995355413924ULL << 64 | 4865540595714422341ULL)

static pcg64 load(const uint64_t *row)
{
    return (pcg64){(u128)row[0] << 64 | row[1], (u128)row[2] << 64 | row[3], row[4], row[5]};
}

static void store(uint64_t *row, const pcg64 *g)
{
    row[0] = (uint64_t)(g->state >> 64);
    row[1] = (uint64_t)g->state;
    row[2] = (uint64_t)(g->inc >> 64);
    row[3] = (uint64_t)g->inc;
    row[4] = g->has_uint32;
    row[5] = g->uinteger;
}

/* pcg64_random_r: step the LCG, then the XSL RR output of the new state. */
static uint64_t next64(pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return x >> rot | x << (-rot & 63);
}

/* pcg64_next32: the low half of an output, keeping the high half for the
 * next call. */
static uint32_t next32(pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return (uint32_t)g->uinteger;
    }
    uint64_t next = next64(g);
    g->has_uint32 = 1;
    g->uinteger = next >> 32;
    return (uint32_t)next;
}

/* SeedSequence's hash and mixing functions (numpy/random/bit_generator.pyx). */
#define POOL 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu

static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= MULT_A;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> 16;
}

/* Row r of streams becomes the state of np.random.default_rng(seed + r):
 * SeedSequence(seed + r).generate_state(4, uint64), then PCG64's seeding.
 * words holds the base seed as n_words little-endian uint32 words, room
 * enough for seed + R; one is added to it, with carry, after each row. */
void seed_streams(int64_t R, int64_t n_words, uint32_t *words, uint64_t *streams)
{
    for (int64_t r = 0; r < R; r++) {
        int64_t n = n_words; /* the entropy: the seed's words, high zero words dropped */
        while (n > 1 && words[n - 1] == 0)
            n--;
        uint32_t pool[POOL], hash = INIT_A;
        for (int i = 0; i < POOL; i++)
            pool[i] = hashmix(i < n ? words[i] : 0, &hash);
        for (int src = 0; src < POOL; src++)
            for (int dst = 0; dst < POOL; dst++)
                if (src != dst)
                    pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
        for (int64_t src = POOL; src < n; src++)
            for (int dst = 0; dst < POOL; dst++)
                pool[dst] = mix(pool[dst], hashmix(words[src], &hash));
        uint64_t seed[4];
        hash = INIT_B;
        for (int i = 0; i < 8; i++) {
            uint32_t value = pool[i % POOL] ^ hash;
            hash *= MULT_B;
            value *= hash;
            value ^= value >> 16;
            seed[i / 2] = i % 2 ? seed[i / 2] | (uint64_t)value << 32 : value;
        }
        /* pcg64_set_seed, then pcg_setseq_128_srandom_r */
        pcg64 g = {0, ((u128)seed[2] << 64 | seed[3]) << 1 | 1, 0, 0};
        g.state = g.state * PCG_MULT + g.inc;
        g.state += (u128)seed[0] << 64 | seed[1];
        g.state = g.state * PCG_MULT + g.inc;
        store(streams + r * STREAM, &g);
        for (int64_t i = 0; i < n_words && ++words[i] == 0; i++)
            ;
    }
}

/* Row r of out becomes stream r's rng.random(k): next_double's 53 bits. */
void random_rows(int64_t R, int64_t k, uint64_t *streams, double *out)
{
    for (int64_t r = 0; r < R; r++) {
        pcg64 g = load(streams + r * STREAM);
        for (int64_t i = 0; i < k; i++)
            out[r * k + i] = (double)(next64(&g) >> 11) * (1.0 / 9007199254740992.0);
        store(streams + r * STREAM, &g);
    }
}

/* numpy's random_interval for max >= 1: masked rejection on [0, max]. */
static uint64_t random_interval(pcg64 *g, uint64_t max)
{
    uint64_t mask = max, value;
    for (int s = 1; s < 64; s <<= 1)
        mask |= mask >> s;
    if (max <= 0xffffffffULL)
        while ((value = (next32(g) & mask)) > max)
            ;
    else
        while ((value = (next64(g) & mask)) > max)
            ;
    return value;
}

/* Helpers inlined into each block, so that a constant lane count gives lane
 * loops of a known trip count: one lane costs what the plain loop costs,
 * and a full block's loops can use the vector unit, lane by lane.  Those
 * that take W, the lane stride of the block's lane-major arrays, take it as
 * a constant too: SLP_LANES or MLP_LANES. */
#define INLINE static inline __attribute__((always_inline))

/* One attempt of random_interval(*i) at step *i of a Fisher-Yates, with
 * 1 <= *i <= 0xffffffff, on the 32-bit value v, without a branch: the mask
 * is random_interval's smear of *i, a rejected value swaps row[*i] with
 * itself, and an accepted one moves to the next step. */
INLINE void attempt(int64_t *row, int64_t *i, uint32_t v)
{
    int64_t at = *i, j = v & (0xffffffffu >> __builtin_clz((uint32_t)at)), ok = j <= at;
    j = ok ? j : at;
    int64_t swap = row[at];
    row[at] = row[j];
    row[j] = swap;
    *i = at - ok;
}

/* Row b of perm (n entries from perm + b * n) becomes lane b's
 * rng.permutation(n), for the nb lanes of g: the Fisher-Yates of numpy's
 * Generator.shuffle, from step n - 1 down to 1, with the same draws.  While
 * n - 1 fits in 32 bits, a step takes next32's draws: a lane's buffered
 * half first, then, while every lane has two steps left or more, the lanes
 * in turn each take one output and make their attempts on its low half,
 * then its high half, leaving the high half in uinteger as two next32 calls
 * do.  The few steps left go through random_interval, as do all of a
 * larger n's. */
INLINE void permutations(int64_t nb, pcg64 *g, int64_t n, int64_t *perm)
{
    int paired = n > 1 && n - 1 <= 0xffffffffLL;
    int64_t step[MLP_LANES], least = paired ? n - 1 : 0;
    for (int64_t b = 0; b < nb; b++) {
        int64_t *row = perm + b * n;
        for (int64_t i = 0; i < n; i++)
            row[i] = i;
        step[b] = n - 1;
        if (paired && g[b].has_uint32) {
            g[b].has_uint32 = 0;
            attempt(row, step + b, (uint32_t)g[b].uinteger);
            least = step[b] < least ? step[b] : least;
        }
    }
    while (least >= 2) {
        for (int64_t round = least / 2; round > 0; round--) /* each takes a lane two steps down at most */
            for (int64_t b = 0; b < nb; b++) {
                uint64_t x = next64(g + b);
                attempt(perm + b * n, step + b, (uint32_t)x);
                attempt(perm + b * n, step + b, (uint32_t)(x >> 32));
                g[b].uinteger = x >> 32;
            }
        least = step[0];
        for (int64_t b = 1; b < nb; b++)
            least = step[b] < least ? step[b] : least;
    }
    for (int64_t b = 0; b < nb; b++)
        for (int64_t i = step[b], *row = perm + b * n; i > 0; i--) {
            int64_t j = (int64_t)random_interval(g + b, (uint64_t)i), swap = row[i];
            row[i] = row[j];
            row[j] = swap;
        }
}

/* Row r of perm becomes stream r's rng.permutation(n), in blocks of
 * SLP_LANES rows. */
void shuffle_rows(int64_t R, int64_t n, uint64_t *streams, int64_t *perm)
{
    pcg64 g[SLP_LANES];
    for (int64_t r0 = 0; r0 < R; r0 += SLP_LANES) {
        int64_t nb = R - r0 < SLP_LANES ? R - r0 : SLP_LANES;
        for (int64_t b = 0; b < nb; b++)
            g[b] = load(streams + (r0 + b) * STREAM);
        permutations(nb, g, n, perm + r0 * n);
        for (int64_t b = 0; b < nb; b++)
            store(streams + (r0 + b) * STREAM, g + b);
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

/* A run's arguments (see run; a score's outputs go to histories) and the
 * sizes of its scratch, which holds for each lane its permutation (a run
 * only), the sample's inputs, the parameters in the order of p (`weights`
 * SLP weights or MLP gammas, then `nodes` MLP node biases), then the MLP's
 * work space (see mlp_forward and mlp_backward).  The helpers take it by
 * value, so that no store through a pointer can alias a field. */
typedef struct {
    int64_t R, n, n_in, epochs, L, weights, nodes, widest;
    const double *xs, *ts;
    const int64_t *sizes;
    uint64_t *streams;
    double **p, *histories, *inc, *scratch;
    int64_t *where;
    double bound, window_a, eta, b_scale, kt, m_prime, r_off, r_on, d;
} args;

/* The streams of the nb lanes from r0 to g, unless g is NULL, and rows r0
 * .. r0 + nb - 1 of each array of p to the lane-major copy q (element e of
 * lane b at q[e * W + b], one array after another), if in; else back from g
 * and q.
 * With L = 0 (the SLP) p holds one (R, n_in + 1) array, else L (R,
 * sizes[l] * sizes[l + 1]) then L (R, sizes[l + 1]) arrays. */
INLINE void lanes(int64_t W, int64_t nb, int64_t r0, int64_t L, args c, pcg64 *g, double *q, int in)
{
    for (int64_t b = 0; g && b < nb; b++)
        if (in)
            g[b] = load(c.streams + (r0 + b) * STREAM);
        else
            store(c.streams + (r0 + b) * STREAM, g + b);
    for (int64_t a = 0; a < (L ? 2 * L : 1); a++) {
        int64_t size = !L ? c.n_in + 1 : a < L ? c.sizes[a] * c.sizes[a + 1] : c.sizes[a - L + 1];
        for (int64_t e = 0; e < size; e++)
            for (int64_t b = 0; b < nb; b++) {
                double *row = c.p[a] + (r0 + b) * size + e;
                if (in)
                    q[e * W + b] = *row;
                else
                    *row = q[e * W + b];
            }
        q += size * W;
    }
}

/* Adds inc[b] to q[b], then clamps, for each b < n: in a block, the lanes
 * of one parameter.  This is a burst write, which lands in full. */
INLINE void burst(int64_t n, double *q, const double *inc, double bound)
{
    for (int64_t b = 0; b < n; b++)
        q[b] = clamp(q[b] + inc[b], bound);
}

/* burst, as single pulses: if an increment has |inc| >= window_a, nothing
 * is written and the call returns the first such b; else it returns -1. */
INLINE int64_t apply(int64_t n, double *q, const double *inc, double bound, double window_a)
{
    int over = 0;
    for (int64_t b = 0; b < n; b++)
        over |= fabs(inc[b]) >= window_a;
    if (over) {
        int64_t b = 0;
        while (!(fabs(inc[b]) >= window_a))
            b++;
        return b;
    }
    burst(n, q, inc, bound);
    return -1;
}

/* apply, on n variables at once: the SLP's write, exported for its tests. */
int64_t write_pulses(int64_t n, double *q, const double *inc, double bound, double window_a)
{
    return apply(n, q, inc, bound, window_a);
}

/* A violation's key (epoch, sample, realization, weight) goes to where and
 * its increment to *inc if it comes before the one kept there. */
INLINE void keep(int64_t *where, double *inc, const int64_t *key, double increment)
{
    for (int j = 0; j < 4 && key[j] <= where[j]; j++)
        if (key[j] < where[j]) {
            memcpy(where, key, 4 * sizeof *key);
            *inc = increment;
            return;
        }
}

/* apply to the nb lanes from r0 of weight i, at q, in sample k of epoch e,
 * keeping a violation in c.where and *c.inc. */
INLINE void put(int64_t nb, int64_t r0, int64_t e, int64_t k, int64_t i, double *q,
                const double *inc, args c)
{
    int64_t hit = apply(nb, q, inc, c.bound, c.window_a), key[4] = {e, k, r0 + hit, i};
    if (hit >= 0)
        keep(c.where, c.inc, key, inc[hit]);
}

/* The forward halves compute the outputs of the nb lanes on the inputs x.
 * The SLP's is logistic in the weighted input sum shifted by the bias
 * weight, w being the weights, the bias weight last; it writes out[b]. */
INLINE void slp_forward(int64_t W, int64_t nb, const double *w, const double *x, double *out, args c)
{
    int64_t n_in = c.n_in;
    for (int64_t b = 0; b < nb; b++)
        out[b] = w[b] * x[b];
    for (int64_t i = 1; i < n_in; i++)
        for (int64_t b = 0; b < nb; b++)
            out[b] = out[b] + w[i * W + b] * x[i * W + b];
    for (int64_t b = 0; b < nb; b++)
        out[b] = 1.0 / (1.0 + exp(-(out[b] + w[n_in * W + b])));
}

/* The MLP's: gam is the L layers' synapse gammas, then their node biases.
 * After them it writes each layer's net input, output and activation
 * derivative, and it returns the network's output, which its activation
 * derivative follows. */
INLINE const double *mlp_forward(int64_t W, int64_t nb, double *gam, const double *x, args c)
{
    const int64_t L = c.L, *sizes = c.sizes;
    const double b_scale = c.b_scale, kt = c.kt, r_off = c.r_off, r_on = c.r_on, d = c.d;
    double *bias = gam + c.weights * W, *s = bias + c.nodes * W, acc[MLP_LANES], drive[MLP_LANES];
    const double *in = x;
    for (int64_t l = 0; l < L; l++) {
        int64_t ni = sizes[l], no = sizes[l + 1];
        double *v = s + no * W, *dv = v + no * W;
        for (int64_t j = 0; j < no; j++) {
            for (int64_t b = 0; b < nb; b++)
                acc[b] = (b_scale * gam[j * W + b]) * in[b];
            for (int64_t i = 1; i < ni; i++)
                for (int64_t b = 0; b < nb; b++)
                    acc[b] = acc[b] + (b_scale * gam[(i * no + j) * W + b]) * in[i * W + b];
            /* the select in a lane loop of its own, and neither loop unrolled
             * before the vectorizer, so that gcc 12 makes both vector loops:
             * in the node loop, or unrolled, each lane's select was a branch */
#pragma GCC unroll 1
            for (int64_t b = 0; b < nb; b++)
                drive[b] = acc[b] > 0.0 ? acc[b] : 0.0;
#pragma GCC unroll 1
            for (int64_t b = 0; b < nb; b++) {
                double bj = bias[j * W + b];
                double m = r_off * (1.0 - bj / d) + r_on * (bj / d);
                s[j * W + b] = acc[b];
                v[j * W + b] = m * acc[b] - kt * (drive[b] * drive[b]);
                dv[j * W + b] = m - (2.0 * kt) * drive[b];
            }
        }
        in = v;
        gam += ni * no * W;
        bias += no * W;
        s = dv + no * W;
    }
    return in;
}

/* The backward halves train the nb lanes from r0 on sample k of epoch e,
 * given the inputs x, the forward's outputs out and the target t, and add
 * each lane's error to total[b].  The SLP's is the delta rule. */
INLINE void slp_backward(int64_t W, int64_t nb, int64_t r0, int64_t e, int64_t k, double *w, const double *x,
                         const double *out, const double *t, double *total, args c)
{
    int64_t n_in = c.n_in;
    double base[MLP_LANES], inc[MLP_LANES];
    for (int64_t b = 0; b < nb; b++) {
        double diff = t[b] - out[b];
        base[b] = (c.eta * diff) * (out[b] * (1.0 - out[b]));
        total[b] += (0.5 * diff) * diff;
    }
    for (int64_t i = 0; i < n_in; i++) {
        for (int64_t b = 0; b < nb; b++)
            inc[b] = base[b] * x[i * W + b];
        put(nb, r0, e, k, i, w + i * W, inc, c);
    }
    put(nb, r0, e, k, n_in, w + n_in * W, base, c);
}

/* Backpropagation, on mlp_forward's work space; after it come three vectors
 * of the widest layer. */
INLINE void mlp_backward(int64_t W, int64_t nb, double *gam, const double *x, const double *in, const double *t,
                         double *total, args c)
{
    const int64_t L = c.L, *sizes = c.sizes;
    const double eta = c.eta, b_scale = c.b_scale;
    /* the ends of the gammas, the node biases and the work space */
    double *bias = gam + (c.weights + c.nodes) * W, *s = bias + 3 * c.nodes * W;
    double *up = s, *delta = up + c.widest * W, *next = delta + c.widest * W;
    double acc[MLP_LANES], inc[MLP_LANES];
    double err[MLP_LANES] = {0.0}; /* set at j = 0; the zeros only quiet -Wmaybe-uninitialized */
    gam += c.weights * W;
    /* up is the pull on a layer's outputs, delta the pull on its net inputs */
    int64_t nout = sizes[L];
    for (int64_t j = 0; j < nout; j++)
        for (int64_t b = 0; b < nb; b++) {
            double diff = t[b] - in[j * W + b], sq = (0.5 * diff) * diff;
            err[b] = j ? err[b] + sq : sq;
            up[j * W + b] = diff;
            delta[j * W + b] = diff * in[(nout + j) * W + b];
        }
    for (int64_t b = 0; b < nb; b++)
        total[b] += err[b];
    for (int64_t l = L - 1; l >= 0; l--) {
        int64_t ni = sizes[l], no = sizes[l + 1];
        gam -= ni * no * W;
        bias -= no * W;
        s -= 3 * no * W;
        const double *prev = l ? s - 2 * ni * W : x;
        if (l) /* with the weights before this step's update */
            for (int64_t i = 0; i < ni; i++) {
                for (int64_t b = 0; b < nb; b++)
                    acc[b] = delta[b] * (b_scale * gam[i * no * W + b]);
                for (int64_t j = 1; j < no; j++)
                    for (int64_t b = 0; b < nb; b++)
                        acc[b] = acc[b] + delta[j * W + b] * (b_scale * gam[(i * no + j) * W + b]);
                for (int64_t b = 0; b < nb; b++)
                    next[i * W + b] = acc[b];
            }
        /* the increments of a sample do not depend on its writes */
        for (int64_t i = 0; i < ni; i++)
            for (int64_t j = 0; j < no; j++) {
                for (int64_t b = 0; b < nb; b++)
                    inc[b] = ((eta * delta[j * W + b]) * prev[i * W + b]) / b_scale;
                burst(nb, gam + (i * no + j) * W, inc, c.bound);
            }
        for (int64_t j = 0; j < no; j++) {
            for (int64_t b = 0; b < nb; b++)
                inc[b] = ((eta * up[j * W + b]) * c.m_prime) * s[j * W + b];
            burst(nb, bias + j * W, inc, c.bound);
        }
        if (l) {
            double *spare = up;
            up = next;
            next = spare;
            for (int64_t i = 0; i < ni; i++)
                for (int64_t b = 0; b < nb; b++)
                    delta[i * W + b] = s[(i - ni) * W + b] * up[i * W + b];
        }
    }
}

/* Trains the block of nb lanes from realization r0: the SLP if L = 0, else
 * the MLP of c.L layers. */
INLINE void block(int64_t W, int64_t nb, int64_t r0, int64_t L, args c)
{
    int64_t n = c.n, n_in = c.n_in, *perm = (int64_t *)c.scratch;
    double *x = c.scratch + n * W, *q = x + n_in * W, t[MLP_LANES], total[MLP_LANES], out[MLP_LANES];
    pcg64 g[MLP_LANES];
    lanes(W, nb, r0, L, c, g, q, 1);
    for (int64_t e = 0; e < c.epochs; e++) {
        permutations(nb, g, n, perm);
        for (int64_t b = 0; b < nb; b++)
            total[b] = 0.0;
        for (int64_t k = 0; k < n; k++) {
            for (int64_t b = 0; b < nb; b++) {
                int64_t idx = perm[b * n + k];
                t[b] = c.ts[idx];
                for (int64_t i = 0; i < n_in; i++)
                    x[i * W + b] = c.xs[idx * n_in + i];
            }
            if (L) {
                mlp_backward(W, nb, q, x, mlp_forward(W, nb, q, x, c), t, total, c);
            } else {
                slp_forward(W, nb, q, x, out, c);
                slp_backward(W, nb, r0, e, k, q, x, out, t, total, c);
            }
            if (c.where[0] < e || (c.where[0] == e && c.where[1] <= k))
                goto done; /* no later violation can come first */
        }
        for (int64_t b = 0; b < nb; b++)
            c.histories[(r0 + b) * c.epochs + e] = total[b];
    }
done:
    lanes(W, nb, r0, L, c, g, q, 0);
}

/* Scores the block of nb lanes from r0 on each of the c.n samples of c.xs
 * in turn: the forward half of a training step alone.  Lane b's outputs on
 * sample k go to row (r0 + b) * c.n + k of c.histories. */
INLINE void score_block(int64_t W, int64_t nb, int64_t r0, int64_t L, args c)
{
    int64_t n_in = c.n_in, outputs = L ? c.sizes[L] : 1;
    double *x = c.scratch, *q = x + n_in * W, out[MLP_LANES];
    lanes(W, nb, r0, L, c, NULL, q, 1);
    for (int64_t k = 0; k < c.n; k++) {
        for (int64_t i = 0; i < n_in; i++)
            for (int64_t b = 0; b < nb; b++)
                x[i * W + b] = c.xs[k * n_in + i];
        const double *y = out;
        if (L)
            y = mlp_forward(W, nb, q, x, c);
        else
            slp_forward(W, nb, q, x, out, c);
        for (int64_t j = 0; j < outputs; j++)
            for (int64_t b = 0; b < nb; b++)
                c.histories[((r0 + b) * c.n + k) * outputs + j] = y[j * W + b];
    }
}

/* block, or score_block if scoring. */
INLINE void lane_block(int64_t W, int64_t nb, int64_t r0, int64_t L, int scoring, args c)
{
    if (scoring)
        score_block(W, nb, r0, L, c);
    else
        block(W, nb, r0, L, c);
}

/* Trains, or scores if scoring, the lane blocks of realizations lo to
 * hi - 1: full ones of W lanes, then the rest.  Of a rest of MLP_LANES, 8
 * lanes or more go first in a block of 8, since a half-full block cost
 * 1.19 times what 8 lanes cost in one of their own.  A single realization
 * goes in a block apart, so that R = 1 pays for no idle lanes. */
INLINE void blocks(int64_t W, int64_t L, int scoring, args c, int64_t lo, int64_t hi)
{
    for (int64_t r0 = lo, nb; r0 < hi; r0 += nb) {
        nb = hi - r0 >= W ? W : W > 8 && hi - r0 >= 8 ? 8 : hi - r0;
        if (nb == W)
            lane_block(W, W, r0, L, scoring, c);
        else if (W > 8 && nb == 8)
            lane_block(W, 8, r0, L, scoring, c);
        else if (nb == 1)
            lane_block(W, 1, r0, L, scoring, c);
        else
            lane_block(W, nb, r0, L, scoring, c);
    }
}

/* The MLP's blocks, in a function apart from the SLP's: sharing one, built
 * by gcc 12 at -O3, the SLP's steps ran 5-10% slower at R = 8, 100 and 1000
 * on one CPU, and the MLP's 1-3%.  They are built twice, for AVX2 and for
 * the default target, each a noinline function of its own: a
 * target_clones pair kept its args in memory, and ran 0.94-0.96 of the
 * default copy's time where this AVX2 copy ran 0.61-0.63 (one CPU, R = 100
 * and 1000).  The AVX2 copy takes no FMA: with -ffp-contract=off neither
 * copy contracts, so both make the same operations. */
__attribute__((noinline, target("avx2"))) static void mlp_blocks_avx2(args c, int64_t lo, int64_t hi)
{
    blocks(MLP_LANES, c.L, 0, c, lo, hi);
}

__attribute__((noinline)) static void mlp_blocks(args c, int64_t lo, int64_t hi)
{
    blocks(MLP_LANES, c.L, 0, c, lo, hi);
}

/* 1 if run trains the MLP on mlp_blocks_avx2, else 0 (mlp_blocks): 1 where
 * the CPU has AVX2, unless the build defines NO_AVX2, which a test uses to
 * compare the two copies' bytes. */
int avx2(void)
{
#ifdef NO_AVX2
    return 0;
#else
    return __builtin_cpu_supports("avx2") != 0;
#endif
}

/* Sets c's layer totals from its sizes and returns the width of a lane's
 * scratch: the inputs, the parameters and mlp_forward's work space, and in
 * training also the permutation (as many int64s as samples) and
 * mlp_backward's three vectors. */
INLINE int64_t prepare(args *c, int training)
{
    for (int64_t l = 0; l < c->L; l++) {
        c->weights += c->sizes[l] * c->sizes[l + 1];
        c->nodes += c->sizes[l + 1];
        c->widest = c->sizes[l + 1] > c->widest ? c->sizes[l + 1] : c->widest;
    }
    return c->n_in + c->weights + 4 * c->nodes + (training ? c->n + 3 * c->widest : 0);
}

/* A run's pieces, size realizations each but the last, and what its threads
 * share: the next piece to take, each piece's first violation, and whether
 * the MLP's blocks run on their AVX2 copy. */
typedef struct {
    args c; /* c.scratch holds one thread's scratch of `width`, then the other's */
    int64_t size, count, width, where[PIECES][4];
    double inc[PIECES];
    atomic_int_fast64_t next;
    int avx2;
} cut;

/* Trains the pieces no thread has taken yet, one at a time, on the scratch
 * of thread t, 0 being the caller. */
static void take(cut *u, int64_t t)
{
    args c = u->c;
    c.scratch += t * u->width;
    for (int64_t i; (i = atomic_fetch_add(&u->next, 1)) < u->count;) {
        int64_t lo = i * u->size, hi = lo + u->size < c.R ? lo + u->size : c.R;
        c.where = u->where[i];
        c.inc = u->inc + i;
        for (int j = 0; j < 4; j++) /* no violation: after every key */
            c.where[j] = INT64_MAX;
        if (!c.L)
            blocks(SLP_LANES, 0, 0, c, lo, hi);
        else if (u->avx2)
            mlp_blocks_avx2(c, lo, hi);
        else
            mlp_blocks(c, lo, hi);
    }
}

static void *second(void *u)
{
    take(u, 1);
    return NULL;
}

/* Trains the SLP if L = 0, which alone uses window_a, where and inc, else
 * the MLP of L layers of sizes[0..L], which alone uses b_scale to d (see
 * mlp_forward and mlp_backward), in one thread beside the caller if cpus >
 * 1 and there are two pieces or more.  Allocates the threads' scratch;
 * returns 2 if that fails, 1 after a window violation, else 0. */
int run(int64_t R, int64_t n, int64_t n_in, const double *xs, const double *ts, int64_t epochs,
        uint64_t *streams, double **p, double *histories, double bound, double window_a,
        int64_t *where, double *inc, double eta, int64_t L, const int64_t *sizes, double b_scale,
        double kt, double m_prime, double r_off, double r_on, double d, int64_t cpus)
{
    args c = {R, n, n_in, epochs, L, L ? 0 : n_in + 1, 0, 0, xs, ts, sizes, streams, p,
              histories, NULL, NULL, NULL, bound, window_a, eta, b_scale, kt, m_prime, r_off,
              r_on, d};
    int64_t W = L ? MLP_LANES : SLP_LANES, width = prepare(&c, 1) * W;
    int64_t size = R < 2 * W ? R : W * ((R - 1) / (W * PIECES) + 1);
    cut u = {.c = c, .size = size, .count = size ? (R - 1) / size + 1 : 0, .width = width, .avx2 = L && avx2()};
    int64_t threads = cpus > 1 && u.count > 1 ? 2 : 1;
    if ((u.c.scratch = malloc((size_t)(threads * width) * sizeof *u.c.scratch)) == NULL)
        return 2;
    pthread_t thread;
    if (threads == 2 && pthread_create(&thread, NULL, second, &u) != 0)
        threads = 1; /* the caller takes every piece */
    take(&u, 0);
    if (threads == 2)
        pthread_join(thread, NULL);
    free(u.c.scratch);
    for (int j = 0; j < 4; j++)
        where[j] = INT64_MAX;
    for (int64_t i = 0; i < u.count; i++)
        keep(where, inc, u.where[i], u.inc[i]);
    return where[0] != INT64_MAX;
}

/* The score's blocks, in a function apart from run. */
__attribute__((noinline)) static void score_blocks(args c)
{
    if (c.L)
        blocks(MLP_LANES, c.L, 1, c, 0, c.R);
    else
        blocks(SLP_LANES, 0, 1, c, 0, c.R);
}

/* Writes each realization's outputs on each of the n samples of xs to
 * scores, an (R, n, outputs) array: the forward of run's steps alone, on
 * run's arguments of the same names.  Returns 2 if the scratch cannot be
 * allocated, else 0. */
int score(int64_t R, int64_t n, int64_t n_in, const double *xs, double **p, double *scores,
          int64_t L, const int64_t *sizes, double b_scale, double kt, double m_prime, double r_off,
          double r_on, double d)
{
    args c = {R, n, n_in, 0, L, L ? 0 : n_in + 1, 0, 0, xs, NULL, sizes, NULL, p, scores, NULL,
              NULL, NULL, 0.0, 0.0, 0.0, b_scale, kt, m_prime, r_off, r_on, d};
    int64_t W = L ? MLP_LANES : SLP_LANES;
    if ((c.scratch = malloc((size_t)(prepare(&c, 0) * W) * sizeof *c.scratch)) == NULL)
        return 2;
    score_blocks(c);
    free(c.scratch);
    return 0;
}
