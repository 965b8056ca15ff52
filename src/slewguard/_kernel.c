/* The closed loop's per-sample work, compiled: ``engine._LoopContext.rhs``
 * with ``_resolve``, the switches, the laws and the disturbance, ``step``'s
 * RK4 combine, renormalization and state check, ``record``'s logged row
 * and ``engine._RunStats.add``, which folds each sample into the run's
 * statistics record.
 *
 * Every expression repeats the Python one, operation for operation and in
 * the same order, so each result is the same double: the two are tied
 * together bit for bit by the tests.  That needs IEEE doubles without
 * contraction or reassociation (``-ffp-contract=off -fno-fast-math``) and
 * the same libm the interpreter's ``math`` module calls.  ``pow``, ``sin``
 * and ``cos`` are called through volatile pointers, so the compiler can
 * neither fold ``pow(x, 2.0)`` into ``x * x`` nor merge a sine and a cosine
 * of one argument into ``sincos``; Python's ``x ** 2`` calls ``pow``.
 * ``math.degrees`` multiplies by a constant and ``log(2)`` is a constant of
 * ``envelope``, so both come from Python with the scenario constants.  The
 * layouts shared with Python are stated there once and come as ``-D``
 * definitions from ``_kernel.py``: ``P_*`` and ``C_*`` (``CONSTANTS`` and
 * ``CONE``), ``S_*`` (``engine._S_*``), ``ROW_WIDTH`` (``engine._columns``).
 *
 * Where the Python code would raise (an abort of the run, a division by
 * zero, a square root of a negative number, ``** 2`` overflowing), this
 * code stops before the sample concerned, with the statistics record as it
 * was, and reports how many samples it completed.  The caller replays that
 * sample with the Python code, which raises, so no abort is raised or
 * worded here.
 */

#include <math.h>
#include <stdlib.h>

/* The stage quantities of ``rhs``, ``16 + n_cones`` doubles: r_b, x_e,
 * eps, omega_s, omega_v, the command, e2, u and the cone cosines. */
enum {
    ST_RB = 0, ST_XE = 3, ST_EPS = 4, ST_S = 5, ST_V = 6, ST_VCMD = 7,
    ST_E2 = 10, ST_U = 13, ST_BETAS = 16
};

static double (*volatile pow_fn)(double, double) = pow;
static double (*volatile sin_fn)(double) = sin;
static double (*volatile cos_fn)(double) = cos;

/* The Python operations that can raise, flagging ``*err`` where they do. */
static double div_(double a, double b, int *err)
{
    if (b == 0.0)
        *err = 1;
    return a / b;
}

static double sqrt_(double x, int *err)
{
    if (x < 0.0)
        *err = 1;
    return sqrt(x);
}

static double square(double x, int *err)
{
    /* float_pow: a negative base is raised as its magnitude, and a finite
     * base whose power overflows raises OverflowError */
    double r = pow_fn(fabs(x), 2.0);
    if (isinf(r) && isfinite(x))
        *err = 1;
    return r;
}

static double trig(double (*f)(double), double x, int *err)
{
    if (isinf(x))
        *err = 1;
    return f(x);
}

/* potential.bridge */
static double bridge(const double *shape, double guard, double beta,
                     double scale, int *err)
{
    double lo = shape[0], hi = shape[1], mid = shape[2], k = shape[3];
    double root, arg;
    if (beta < lo + guard)
        return 0.0;
    if (beta > hi - guard)
        return scale;
    root = sqrt_((beta - lo) * (hi - beta), err);
    arg = div_(k * (beta - mid), root, err);
    return 0.5 * scale * (tanh(arg) + 1.0);
}

/* potential.bridge_grad */
static double bridge_grad(const double *shape, double guard, double beta,
                          double scale, int *err)
{
    double lo = shape[0], hi = shape[1], mid = shape[2], k = shape[3];
    double d, root, arg, darg, e, sech;
    if (beta < lo + guard || beta > hi - guard)
        return 0.0;
    d = (beta - lo) * (hi - beta);
    root = sqrt_(d, err);
    arg = div_(k * (beta - mid), root, err);
    darg = div_(k * (d - 0.5 * (beta - mid) * (lo + hi - 2.0 * beta)),
                d * root, err);
    e = exp(-fabs(arg));
    sech = div_(2.0 * e, 1.0 + e * e, err);
    return 0.5 * scale * sech * sech * darg;
}

/* engine.disturbance_torque, with its frequency engine._DIST_OMEGA */
static void disturbance(double t, double *d, int *err)
{
    double a = 0.01 * t;
    d[0] = 1e-3 * (4.0 * trig(sin_fn, 3.0 * a, err)
                   + 3.0 * trig(cos_fn, 10.0 * a, err) - 40.0);
    d[1] = 1e-3 * (-1.5 * trig(sin_fn, 2.0 * a, err)
                   + 3.0 * trig(cos_fn, 5.0 * a, err) + 45.0);
    d[2] = 1e-3 * (3.0 * trig(sin_fn, 10.0 * a, err)
                   - 8.0 * trig(cos_fn, 4.0 * a, err) + 40.0);
}

/* The conjugate sandwich of _LoopContext._resolve for one vector. */
static void to_body(double cx, double cy, double cz, double qw,
                    const double *v, double *out)
{
    double vx = v[0], vy = v[1], vz = v[2];
    double tx = 2.0 * (cy * vz - cz * vy);
    double ty = 2.0 * (cz * vx - cx * vz);
    double tz = 2.0 * (cx * vy - cy * vx);
    out[0] = vx + qw * tx + cy * tz - cz * ty;
    out[1] = vy + qw * ty + cz * tx - cx * tz;
    out[2] = vz + qw * tz + cx * ty - cy * tx;
}

/* _LoopContext.rhs: the derivative ``dy`` of ``y`` at ``t`` and the stage
 * quantities into ``st``, with room for the body-frame cone axes in
 * ``axes`` (3 per cone).  Returns 0, or 1 where the Python code would
 * raise. */
static int rhs(const double *p, double *axes, double t, const double *y,
               double *dy, double *st)
{
    const double *b = p + P_B, *j = p + P_J, *ji = p + P_JI;
    const double guard = p[P_KNOT_GUARD];
    const int benchmark = p[P_BENCHMARK] != 0.0;
    const int n_cones = (int)p[P_N_CONES];
    double qx = y[0], qy = y[1], qz = y[2], qw = y[3];
    double wx = y[4], wy = y[5], wz = y[6], rho = y[7];
    double x1x = y[8], x1y = y[9], x1z = y[10];
    double x2x = y[11], x2y = y[12], x2z = y[13];
    double bx = b[0], by = b[1], bz = b[2];
    double *r_b = st + ST_RB, *betas = st + ST_BETAS;
    double n, cx, cy, cz, cw, x_e, eps, tx, ty, tz, s_eff, v_eff;
    double px = 0.0, py = 0.0, pz = 0.0, track, avoid, vx, vy, vz;
    double jwx, jwy, jwz, gx, gy, gz, ex, ey, ez, sx, sy, sz;
    double l_eps, l_rho, l_s, l_v, barrier, ux, uy, uz, limit;
    double d[3] = {0.0, 0.0, 0.0}, rhx, rhy, rhz, rho_dot;
    double r_td, c1, c2;
    int err = 0, i;

    if (!(rho > 0.0))
        return 1;

    /* _resolve */
    n = sqrt_(qx * qx + qy * qy + qz * qz + qw * qw, &err);
    cx = div_(-qx, n, &err);
    cy = div_(-qy, n, &err);
    cz = div_(-qz, n, &err);
    cw = div_(qw, n, &err);
    to_body(cx, cy, cz, cw, p + P_R, r_b);
    for (i = 0; i < n_cones; i++) {
        double *f = axes + 3 * i;
        to_body(cx, cy, cz, cw, p + P_CONES + CONE_WIDTH * i + C_AXIS, f);
        betas[i] = bx * f[0] + by * f[1] + bz * f[2];
    }
    x_e = 1.0 - (bx * r_b[0] + by * r_b[1] + bz * r_b[2]);

    eps = div_(x_e, rho, &err);
    tx = r_b[1] * bz - r_b[2] * by;
    ty = r_b[2] * bx - r_b[0] * bz;
    tz = r_b[0] * by - r_b[1] * bx;
    if (benchmark) {
        s_eff = v_eff = 1.0;
    } else {
        s_eff = v_eff = 0.0;
        for (i = 0; i < n_cones; i++) {
            double s, v;
            if (betas[i] <= p[P_SWITCH_FLOOR])
                continue;
            s = bridge(p + P_S_SHAPE, guard, betas[i], 1.0, &err);
            if (s > s_eff)
                s_eff = s;
            v = bridge(p + P_V_SHAPE, guard, betas[i], 1.0, &err);
            if (v > v_eff)
                v_eff = v;
        }
    }

    /* controller.apf_vector */
    if (v_eff > 0.0) {
        px = p[P_K_A] * tx;
        py = p[P_K_A] * ty;
        pz = p[P_K_A] * tz;
        for (i = 0; i < n_cones; i++) {
            const double *cone = p + P_CONES + CONE_WIDTH * i;
            double fx = axes[3 * i], fy = axes[3 * i + 1];
            double fz = axes[3 * i + 2];
            double grad = bridge_grad(cone + C_SHAPE, guard, betas[i],
                                      cone[C_K_R], &err);
            if (grad == 0.0)
                continue;
            px -= grad * (fy * bz - fz * by);
            py -= grad * (fz * bx - fx * bz);
            pz -= grad * (fx * by - fy * bx);
        }
    }

    /* controller.virtual_law */
    track = 0.0;
    if (v_eff < 1.0)
        track = div_(-p[P_K1] * rho * eps * (1.0 - v_eff),
                     tx * tx + ty * ty + tz * tz + p[P_SIGMA], &err);
    avoid = 0.0;
    if (v_eff > 0.0)
        avoid = div_(-p[P_K_P] * v_eff,
                     px * px + py * py + pz * pz + p[P_SIGMA], &err);
    vx = tx * track + px * avoid;
    vy = ty * track + py * avoid;
    vz = tz * track + pz * avoid;

    jwx = j[0] * wx + j[1] * wy + j[2] * wz;
    jwy = j[3] * wx + j[4] * wy + j[5] * wz;
    jwz = j[6] * wx + j[7] * wy + j[8] * wz;
    gx = wy * jwz - wz * jwy;
    gy = wz * jwx - wx * jwz;
    gz = wx * jwy - wy * jwx;
    ex = wx - x1x;
    ey = wy - x1y;
    ez = wz - x1z;
    sx = x2x;
    sy = x2y;
    sz = x2z;

    /* controller.torque_law; benchmark_apf_law passes eps 0, rho 1 and
     * both switches at 1 */
    if (benchmark) {
        l_eps = 0.0;
        l_rho = 1.0;
        l_s = l_v = 1.0;
    } else {
        l_eps = eps;
        l_rho = rho;
        l_s = s_eff;
        l_v = v_eff;
    }
    barrier = 0.0;
    if (l_s < 1.0)
        barrier = div_(p[P_G] * tanh(div_(l_eps, p[P_BIG_F], &err)), l_rho,
                       &err) * (1.0 - l_s);
    ux = (gx - p[P_K_OMEGA] * ex
          - p[P_DIST_BOUND] * tanh(div_(ex, p[P_ETA], &err))
          + (j[0] * sx + j[1] * sy + j[2] * sz) - barrier * tx - l_v * px);
    uy = (gy - p[P_K_OMEGA] * ey
          - p[P_DIST_BOUND] * tanh(div_(ey, p[P_ETA], &err))
          + (j[3] * sx + j[4] * sy + j[5] * sz) - barrier * ty - l_v * py);
    uz = (gz - p[P_K_OMEGA] * ez
          - p[P_DIST_BOUND] * tanh(div_(ez, p[P_ETA], &err))
          + (j[6] * sx + j[7] * sy + j[8] * sz) - barrier * tz - l_v * pz);
    limit = p[P_TORQUE_LIMIT];
    if (x_e > p[P_ANTIPODAL]) {
        /* the first axis of least |boresight| component */
        double mags[3] = {fabs(bx), fabs(by), fabs(bz)};
        double nudge = p[P_NUDGE] * limit;
        int m = 0;
        if (mags[1] < mags[m])
            m = 1;
        if (mags[2] < mags[m])
            m = 2;
        if (m == 0)
            ux += nudge;
        else if (m == 1)
            uy += nudge;
        else
            uz += nudge;
    }
    ux = ux > limit ? limit : ux < -limit ? -limit : ux;
    uy = uy > limit ? limit : uy < -limit ? -limit : uy;
    uz = uz > limit ? limit : uz < -limit ? -limit : uz;

    if (p[P_DIST_ON] != 0.0)
        disturbance(t, d, &err);

    /* rigid body: J w_dot = -w x (J w) + u + d */
    rhx = -gx + ux + d[0];
    rhy = -gy + uy + d[1];
    rhz = -gz + uz + d[2];
    dy[4] = ji[0] * rhx + ji[1] * rhy + ji[2] * rhz;
    dy[5] = ji[3] * rhx + ji[4] * rhy + ji[5] * rhz;
    dy[6] = ji[6] * rhx + ji[7] * rhy + ji[8] * rhz;

    if (benchmark) {
        rho_dot = 0.0;
    } else {
        double e_dot = tx * wx + ty * wy + tz * wz;
        double shrink = p[P_NEG_K_RHO] * (rho - p[P_RHO_INF]);
        double follow = 0.0;
        if (!(fabs(x_e) < p[P_RATIO_FLOOR]))
            follow = div_(e_dot, x_e, &err) * rho;
        rho_dot = (1.0 - s_eff) * shrink + s_eff * follow;
    }
    dy[7] = rho_dot;

    r_td = p[P_TD];
    c1 = p[P_TD + 1];
    c2 = p[P_TD + 2];
    dy[8] = x2x;
    dy[9] = x2y;
    dy[10] = x2z;
    dy[11] = c1 * tanh(x1x - vx) - c2 * tanh(div_(x2x, r_td, &err));
    dy[12] = c1 * tanh(x1y - vy) - c2 * tanh(div_(x2y, r_td, &err));
    dy[13] = c1 * tanh(x1z - vz) - c2 * tanh(div_(x2z, r_td, &err));

    dy[0] = 0.5 * (qw * wx + qx * 0.0 + qy * wz - qz * wy);
    dy[1] = 0.5 * (qw * wy - qx * wz + qy * 0.0 + qz * wx);
    dy[2] = 0.5 * (qw * wz + qx * wy - qy * wx + qz * 0.0);
    dy[3] = 0.5 * (qw * 0.0 - qx * wx - qy * wy - qz * wz);

    st[ST_XE] = x_e;
    st[ST_EPS] = eps;
    st[ST_S] = s_eff;
    st[ST_V] = v_eff;
    st[ST_VCMD] = vx;
    st[ST_VCMD + 1] = vy;
    st[ST_VCMD + 2] = vz;
    st[ST_E2] = ex;
    st[ST_E2 + 1] = ey;
    st[ST_E2 + 2] = ez;
    st[ST_U] = ux;
    st[ST_U + 1] = uy;
    st[ST_U + 2] = uz;
    return err;
}

static void axpy(const double *y, double h, const double *k, double *out)
{
    int i;
    for (i = 0; i < 14; i++)
        out[i] = y[i] + h * k[i];
}

/* _LoopContext.step and _check_state: ``y`` advanced from ``t = k dt`` to
 * ``(k + 1) dt`` into ``out``, given its derivative ``k1``.  Returns 0, or
 * 1 where the Python code would raise. */
static int step(const double *p, double *axes, long k, const double *y,
                double dt, const double *k1, double *out, double *st)
{
    double k2[14], k3[14], k4[14], z[14], c, n;
    double t = k * dt, h = 0.5 * dt;
    int err = 0, i;

    axpy(y, h, k1, z);
    if (rhs(p, axes, t + h, z, k2, st))
        return 1;
    axpy(y, h, k2, z);
    if (rhs(p, axes, t + h, z, k3, st))
        return 1;
    axpy(y, dt, k3, z);
    if (rhs(p, axes, (k + 1) * dt, z, k4, st))
        return 1;
    c = dt / 6.0;
    for (i = 0; i < 14; i++)
        out[i] = y[i] + c * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    n = sqrt_(square(out[0], &err) + square(out[1], &err)
              + square(out[2], &err) + square(out[3], &err), &err);
    for (i = 0; i < 4; i++)
        out[i] = div_(out[i], n, &err);
    for (i = 0; i < 14; i++)
        if (!isfinite(out[i]))
            err = 1;
    return err;
}

/* _LoopContext.energies: ``v_q`` and ``v_omega`` of the stage ``st`` into
 * ``e``; blf_value and total_potential form ``v_q``, with envelope._ln_cosh
 * written out. */
static void energies(const double *p, const double *st, double *e, int *err)
{
    const double *j = p + P_J, *r = st + ST_E2;
    const int n_cones = (int)p[P_N_CONES];
    double total = p[P_K_A] * st[ST_XE];
    double az = fabs(div_(st[ST_EPS], p[P_BIG_F], err));
    int i;

    for (i = 0; i < n_cones; i++) {
        const double *cone = p + P_CONES + CONE_WIDTH * i;
        total += bridge(cone + C_SHAPE, p[P_KNOT_GUARD], st[ST_BETAS + i],
                        cone[C_K_R], err);
    }
    e[0] = p[P_G] * p[P_BIG_F] * (az + log1p(exp(-2.0 * az)) - p[P_LN2])
           + total;
    e[1] = 0.5 * (r[0] * (j[0] * r[0] + j[1] * r[1] + j[2] * r[2])
                  + r[1] * (j[3] * r[0] + j[4] * r[1] + j[5] * r[2])
                  + r[2] * (j[6] * r[0] + j[7] * r[1] + j[8] * r[2]));
}

/* The sample at ``t`` of state ``y`` and stage ``st``: its row of
 * _LoopContext.record into ``row`` where it is logged (else ``row`` is
 * NULL), then _RunStats.add into the statistics record ``s``.  Returns 0,
 * or 1 where the Python code would raise, before anything is folded. */
static int take(const double *p, double *s, double t, const double *y,
                const double *st, double *row)
{
    const int n_cones = (int)p[P_N_CONES];
    const int n_levels = (int)s[S_N_LEVELS];
    const double *betas = st + ST_BETAS, *u = st + ST_U;
    const double s_eff = st[ST_S];
    const int first = s[S_SAMPLES] == 0.0, open = s[S_OPEN] != 0.0;
    double *levels = s + S_LEVELS, *max_betas = levels + 2 * n_levels;
    double c = 1.0 - st[ST_XE], angle, q_err, e[2], m, rise = 0.0;
    int err = 0, i, starts, pair;

    /* first what the Python code can raise on, so that such a sample
     * folds nothing: q_err (engine._quat_norm_error, whose ``** 2`` can
     * overflow), the energies and a pair's slope.  The angle is
     * engine._pointing_angle_deg with potential.clamped_acos. */
    angle = acos(c <= -1.0 ? -1.0 : c < 1.0 ? c : 1.0) * p[P_RAD_TO_DEG];
    q_err = fabs(sqrt(square(y[0], &err) + square(y[1], &err)
                      + square(y[2], &err) + square(y[3], &err)) - 1.0);
    starts = !(angle < 1.0 || t < 1.0);
    pair = !(s_eff > 1e-9) && (starts || open);
    if (row != NULL || pair)
        energies(p, st, e, &err);
    if (pair && open)
        rise = div_(e[0] + e[1] - s[S_V_START], t - s[S_T_START], &err);
    if (err)
        return 1;

    if (row != NULL) {
        double dx = y[8] - st[ST_VCMD], dy = y[9] - st[ST_VCMD + 1];
        double dz = y[10] - st[ST_VCMD + 2];
        row[0] = t;
        row[1] = st[ST_XE];
        row[2] = angle;
        for (i = 0; i < n_cones; i++)
            row[3 + i] = betas[i];
        row += 3 + n_cones;
        row[0] = y[7];
        row[1] = st[ST_EPS];
        row[2] = s_eff;
        row[3] = st[ST_V];
        for (i = 0; i < 3; i++) {
            row[4 + i] = y[4 + i];
            row[7 + i] = u[i];
        }
        row[10] = e[0];
        row[11] = e[1];
        row[12] = sqrt(dx * dx + dy * dy + dz * dz);
        row[13] = q_err;
    }

    for (i = 0; i < n_cones; i++)
        if (betas[i] > max_betas[i])
            max_betas[i] = betas[i];
    if (s_eff < 0.5) {
        double a = fabs(st[ST_EPS]);
        if (s[S_TRACKING] == 0.0 || a > s[S_MAX_EPS]) {
            s[S_MAX_EPS] = a;
            s[S_TRACKING] = 1.0;
        }
    }
    /* max() keeps the first of equal or unordered values */
    m = fabs(u[0]);
    if (fabs(u[1]) > m)
        m = fabs(u[1]);
    if (fabs(u[2]) > m)
        m = fabs(u[2]);
    s[S_SAMPLES] += 1.0;
    if (m >= s[S_SAT_LIMIT])
        s[S_SATURATED] += 1.0;
    if (m > s[S_MAX_TORQUE])
        s[S_MAX_TORQUE] = m;

    if (first)
        s[S_INITIAL] = angle;
    s[S_FINAL] = angle;
    if (first || q_err > s[S_MAX_Q_ERR])
        s[S_MAX_Q_ERR] = q_err;
    for (i = 0; i < 2 * n_levels; i += 2) {
        if (!(levels[i] > angle))
            levels[i + 1] = NAN;
        else if (isnan(levels[i + 1]))
            levels[i + 1] = t;
    }
    if (t >= s[S_WINDOW_START]
        && (s[S_IN_WINDOW] == 0.0 || angle > s[S_TERMINAL])) {
        s[S_TERMINAL] = angle;
        s[S_IN_WINDOW] = 1.0;
    }

    if (s_eff > 1e-9) {
        s[S_OPEN] = 0.0;
    } else if (pair) {
        if (open) {
            s[S_PAIRS] += 1.0;
            if (rise > 0.0)
                s[S_RISING] += 1.0;
        }
        s[S_OPEN] = starts;
        s[S_V_START] = e[0] + e[1];
        s[S_T_START] = t;
    }
    return 0;
}

/* Samples ``k`` to ``end - 1`` of a run of ``n`` steps of ``dt``, from the
 * state ``y`` of sample ``k``: each is folded into the statistics record
 * ``s``, and where ``k % stride == 0`` or ``k == n`` its row is written to
 * row ceil(k / stride) of the run's log ``out``; unless it is sample ``n``
 * it is stepped from.  Returns the number of samples completed; ``y`` then
 * holds the state of the next one.  A sample the Python code would raise
 * on, in its evaluation, its row, its statistics or the step after it, is
 * not completed, and the run stops there. */
long slewguard_run(const double *p, double *y, long k, long end, long n,
                   double dt, long stride, double *s, double *out)
{
    const int n_cones = (int)p[P_N_CONES];
    const int width = ROW_WIDTH + n_cones;
    double k1[14], next[14];
    /* the cone axes, the sample's stage quantities, then those of stages
     * 2 to 4 of its step, which nothing reads */
    double *work = malloc(sizeof(double) * (5 * n_cones + 2 * ST_BETAS));
    double *axes = work, *stage = work + 3 * n_cones;
    double *scratch = stage + ST_BETAS + n_cones;
    long done = 0;
    int i;

    if (work == NULL)
        return 0;
    for (; k < end; k++, done++) {
        double *row = NULL;
        /* ceil(k / stride), written so that no sum can overflow */
        if (k % stride == 0 || k == n)
            row = out + (k / stride + (k % stride != 0)) * width;
        if (rhs(p, axes, k * dt, y, k1, stage))
            break;
        if (k < n && step(p, axes, k, y, dt, k1, next, scratch))
            break;
        if (take(p, s, k * dt, y, stage, row))
            break;
        if (k < n)
            for (i = 0; i < 14; i++)
                y[i] = next[i];
    }
    free(work);
    return done;
}
