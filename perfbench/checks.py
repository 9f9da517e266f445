"""Output checks, written with the benchmark's own word algebra so that they
do not run the code being timed.  Each check returns None when the output is
right and a one-line reason when it is not."""

import json
import math

import numpy as np

EXPERIMENT_HEADER = "trial\taut\tlambda\tmu\tratio\tfolds\tcertified"
METRIC_HEADER = "src\tdst\td_upper\twitness_total_length\tmethod"


def reduce_word(word):
    out = []
    for a in word:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def inverse(word):
    return tuple(-a for a in reversed(word))


def substitute(word, images):
    """Image of `word` under x_i -> images[i-1], freely reduced."""
    out = []
    for a in word:
        out.extend(images[a - 1] if a > 0 else inverse(images[-a - 1]))
    return reduce_word(out)


def parse_word(text):
    """A word in the CLI grammar: letters, uppercase or a ^-1 suffix for
    inverses, spaces ignored, "1" for the empty word."""
    text = text.replace(" ", "")
    if text == "1":
        return ()
    word = []
    i = 0
    while i < len(text):
        ch = text[i]
        if not ch.isalpha():
            raise ValueError("unexpected character %r" % ch)
        sign = -1 if ch.isupper() else 1
        i += 1
        if text.startswith("^-1", i):
            sign = -sign
            i += 3
        word.append(sign * (ord(ch.lower()) - ord("a") + 1))
    return tuple(word)


def parse_automorphism(text):
    """Generator images of "a->ab, b->a" as a list of reduced words."""
    rules = {}
    for part in text.split(","):
        left, right = part.split("->")
        rules[left.strip()] = reduce_word(parse_word(right))
    names = [chr(ord("a") + i) for i in range(len(rules))]
    if sorted(rules) != names:
        raise ValueError("generators are not a..%s" % names[-1])
    return [rules[n] for n in names]


def conjugator(images):
    """A word u with images[i] = u x_{i+1} u^-1 for every i, or None.

    A reduced w is conjugate to the letter x exactly when w = p x p^-1, and
    then the conjugators are p x^j.  For rank >= 2 the cosets p_1 <x_1> and
    p_2 <x_2> meet in at most one word, found from p_1^-1 p_2 = x_1^j x_2^-k.
    """
    prefixes = []
    for i, w in enumerate(images):
        k = len(w) // 2
        if len(w) % 2 != 1 or w[k] != i + 1 or w[k + 1:] != inverse(w[:k]):
            return None
        prefixes.append(w[:k])
    if len(images) == 1:
        return prefixes[0]
    r = reduce_word(inverse(prefixes[0]) + prefixes[1])
    j = 0
    while j < len(r) and r[j] == r[0] and abs(r[0]) == 1:
        j += 1
    if any(abs(a) != 2 for a in r[j:]):
        return None
    u = reduce_word(prefixes[0] + r[:j])
    for i, w in enumerate(images):
        if reduce_word(u + (i + 1,) + inverse(u)) != w:
            return None
    return u


def occurrence_matrix(images):
    m = np.zeros((len(images), len(images)))
    for i, w in enumerate(images):
        for a in w:
            m[abs(a) - 1, i] += 1
    return m


def spectral_radius(m):
    return float(max(abs(np.linalg.eigvals(m))))


def _ratio_consistent(ratio, lam, mu):
    """ratio = log lam / log mu, allowing for 12 printed significant digits
    in lam and mu (relative error 5e-12 each, amplified by 1/log)."""
    expected = math.log(lam) / math.log(mu)
    slack = 1e-10 * (1 + abs(expected)) * (
        1 + 1 / abs(math.log(lam)) + 1 / abs(math.log(mu)))
    return abs(ratio - expected) <= slack


def check_ratio(op, text):
    """`ratio` JSON: the inverse inverts both the input and the reported
    automorphism up to one conjugation, lambda and mu are above 1 and at most
    the spectral radius of the occurrence matrices, ratio = log lam/log mu."""
    report = json.loads(text)
    aut = parse_automorphism(report["automorphism"])
    inv = parse_automorphism(report["inverse"])
    for name, source in (("reported", aut),
                         ("input", parse_automorphism(op["input"]))):
        if conjugator([substitute(w, inv) for w in source]) is None:
            return "inverse o %s automorphism is not inner" % name
    lam, mu, ratio = report["lambda"], report["mu"], report["ratio"]
    for label, value, images in (("lambda", lam, aut), ("mu", mu, inv)):
        if value is None:
            continue
        bound = spectral_radius(occurrence_matrix(images))
        if not 1.0 < value <= bound * (1 + 1e-9):
            return "%s = %r outside (1, %r]" % (label, value, bound)
    if lam is None or mu is None:
        return None if ratio is None else "ratio given without lambda and mu"
    if ratio is None or not _ratio_consistent(ratio, lam, mu):
        return "ratio %r is not log(lambda)/log(mu)" % (ratio,)
    return None


def _na_or_float(field):
    return None if field == "NA" else float(field)


def check_experiment(op, text):
    """`experiment` TSV: one row per trial in order, no ERROR rows, lambda and
    mu NA or > 1, ratio = log lam/log mu, `# max_ratio` the row maximum."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != EXPERIMENT_HEADER:
        return "bad header %r" % lines[0]
    last = lines[-1].split("\t")
    if last[0] != "# max_ratio" or len(last) != 2:
        return "missing # max_ratio line"
    rows = [line.split("\t") for line in lines[1:-1]]
    if len(rows) != op["trials"]:
        return "%d rows for %d trials" % (len(rows), op["trials"])
    ratios = []
    for k, row in enumerate(rows):
        if len(row) != 7 or row[0] != str(k):
            return "row %d malformed" % k
        if "ERROR" in row:
            return "trial %d is an ERROR row" % k
        lam, mu, ratio = (_na_or_float(x) for x in row[2:5])
        for value in (lam, mu):
            if value is not None and not value > 1.0:
                return "trial %d: expansion factor %r not > 1" % (k, value)
        if lam is None or mu is None:
            if ratio is not None:
                return "trial %d: ratio without lambda and mu" % k
            continue
        if ratio is None or not _ratio_consistent(ratio, lam, mu):
            return "trial %d: ratio %r is not log(lambda)/log(mu)" % (k, ratio)
        ratios.append(ratio)
    if _na_or_float(last[1]) != (max(ratios) if ratios else None):
        return "# max_ratio %s is not the row maximum" % last[1]
    return None


def check_metric(op, text):
    """`metric` TSV for (G_0, G_m): forward d_upper = log(m+2) with witness
    length m+2, and the reverse direction within a factor 2 of it."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != METRIC_HEADER or len(lines) != 3:
        return "expected a header and two rows"
    rows = {(r[0], r[1]): r for r in (line.split("\t") for line in lines[1:])}
    fwd = rows.get((op["g0"], op["gm"]))
    rev = rows.get((op["gm"], op["g0"]))
    if fwd is None or rev is None:
        return "missing a direction"
    m = op["m"]
    d_fwd, d_rev = float(fwd[2]), float(rev[2])
    # The TSV prints 12 significant digits; log(m+2) must agree to them.
    if abs(d_fwd - math.log(m + 2)) > 1e-11 * math.log(m + 2):
        return "forward d_upper %r != log(%d)" % (d_fwd, m + 2)
    if int(fwd[3]) != m + 2:
        return "forward witness length %s != %d" % (fwd[3], m + 2)
    if not d_fwd / 2 <= d_rev <= 2 * d_fwd:
        return "reverse d_upper %r not within a factor 2 of %r" % (d_rev, d_fwd)
    return None
