#!/usr/bin/env python3
"""Fuzzes the JSON-lines request parser against Python's json module.

Usage: python3 tests/wire_fuzz.py build/examples/serve_jsonl [--seed N]
                                   [--count N]

Takes seeded mutations of valid arch and encoding request lines (insert,
delete or duplicate one of {}[],:" or a digit, one of the number characters
.eE+- or a space, swap two members or repeat one), feeds them to
`serve_jsonl --small` and checks every answer against an oracle built on
Python's json module, which shares no code with the parser under test:

  * each input line gets exactly one output line, and every output line
    passes json.loads;
  * a line the oracle rejects gets an error line;
  * a line the oracle accepts gets exactly the answer of its canonical
    re-serialisation, whether that answer is a result or an error, and the
    oracle predicts which of the two it is and the id it carries;
  * permuting a valid line's members never changes its answer.

The oracle accepts a line when json.loads parses it with no duplicate key
and no NaN/Infinity constant, it has no '\\' anywhere, its keys are among
id, arch and encoding, the id is an integer and both arrays hold numbers
only. Of the accepted lines, predicted_id answers only those whose arch
lists nine op indices in [0, 6] or whose encoding is one-hot: 63 values,
each 0 or 1, with one 1 in each 7-wide slot. "cached" is masked before
answers are compared: it depends on which lines came earlier. Exits 1 on
the first mismatch, printing it.
"""

import argparse
import fractions
import json
import math
import random
import re
import subprocess
import sys

SLOTS = 9
OPS = 7
WIDTH = SLOTS * OPS
LONG_MIN, LONG_MAX = -(2**63), 2**63 - 1
KEYS = {"id", "arch", "encoding"}
MUTABLE = '{}[],:"0123456789.eE+- '


class Number(str):
    """A JSON number kept as its source text, so re-serialising a line
    spells every number the way the line did."""


def reject_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate key")
    return dict(pairs)


def reject_constant(name):
    raise ValueError("not JSON: " + name)


def oracle(line):
    """The request object when `line` is a valid request, else None."""
    if "\\" in line:
        return None
    try:
        obj = json.loads(line, object_pairs_hook=reject_duplicates,
                         parse_constant=reject_constant,
                         parse_int=Number, parse_float=Number)
    except ValueError:
        return None
    if not isinstance(obj, dict) or not set(obj) <= KEYS:
        return None
    if "id" in obj and not (isinstance(obj["id"], Number) and
                            re.fullmatch(r"-?\d+", obj["id"])):
        return None
    for key in ("arch", "encoding"):
        if key in obj and not (isinstance(obj[key], list) and
                               all(isinstance(v, Number) for v in obj[key])):
            return None
    return obj


def as_float32(text):
    """The float32 the server reads for a JSON number, as strtof rounds it:
    the exact decimal value rounded once, half to even, to 24 significant
    bits (fewer below 2^-126); inf past the largest float32. Going through a
    double first would round twice."""
    value = fractions.Fraction(text)
    if value == 0:
        return -0.0 if text.startswith("-") else 0.0
    size = abs(value)
    # 2^exp <= size < 2^(exp + 1)
    exp = size.numerator.bit_length() - size.denominator.bit_length()
    if size < fractions.Fraction(2) ** exp:
        exp -= 1
    quantum = max(exp - 23, -149)
    rounded = round(size / fractions.Fraction(2) ** quantum) * \
        fractions.Fraction(2) ** quantum
    if rounded >= 2**128:
        return math.copysign(math.inf, value)
    return math.copysign(float(rounded), value)


# 1 + 2^-24 + 2^-60 spelled exactly, a hair above the midpoint between 1 and
# the next float32: strtof reads 1 + 2^-23, but a double holds only
# 1 + 2^-24, the midpoint itself, which then ties down to 1.
ABOVE_MIDPOINT = str((2**60 + 2**36 + 1) * 5**60)
ABOVE_MIDPOINT = ABOVE_MIDPOINT[0] + "." + ABOVE_MIDPOINT[1:]


def predicted_id(obj):
    """The id of a result line for a valid request, or None when the
    request must get an error line."""
    rid = int(obj.get("id", -1))
    if not LONG_MIN <= rid <= LONG_MAX:
        return None
    if ("arch" in obj) == ("encoding" in obj):
        return None
    if "arch" in obj:
        ops = [as_float32(v) for v in obj["arch"]]
        if len(ops) != SLOTS or not all(
                0 <= v < OPS and v == math.floor(v) for v in ops):
            return None
    else:
        values = [as_float32(v) for v in obj["encoding"]]
        if len(values) != WIDTH or not all(math.isfinite(v) for v in values):
            return None
        # One-hot: each value 0 or 1 (-0 == 0), one 1 in every slot.
        slots = [values[s * OPS:(s + 1) * OPS] for s in range(SLOTS)]
        if not all(v in (0.0, 1.0) for v in values) or any(
                slot.count(1.0) != 1 for slot in slots):
            return None
    return rid


def dump(value):
    """Canonical spelling: ", " and ": " separators, numbers as written."""
    if isinstance(value, dict):
        return "{" + ", ".join(json.dumps(k) + ": " + dump(v)
                               for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    return str(value)


def compact(members):
    return "{" + ",".join('"%s":%s' % (k, v) for k, v in members) + "}"


def base_members(rng, i):
    """Members of one valid request, values spelled compactly."""
    members = []
    if rng.random() < 0.9:
        members.append(("id", str(rng.choice([i, -i, 0, 10**12 + i]))))
    if rng.random() < 0.5:
        ops = [rng.randrange(OPS) for _ in range(SLOTS)]
        spell = lambda op: rng.choice(["%d", "%d.0", "%de0"]) % op
        members.append(("arch", "[" + ",".join(spell(op) for op in ops) + "]"))
    else:
        values = []
        soft_slot = rng.randrange(SLOTS) if rng.random() < 0.2 else -1
        for s in range(SLOTS):
            hot = rng.randrange(OPS)
            for k in range(OPS):
                if s == soft_slot:
                    values.append(rng.choice(["0.25", "0.5", "1e-3", "2"]))
                elif k == hot:
                    values.append(rng.choice(["1", "1.0", "1e0", "1E+0",
                                              "10e-1"]))
                else:
                    values.append(rng.choice(["0", "0", "-0", "0.0", "0.000",
                                              "-0.0E-3"]))
        members.append(("encoding", "[" + ",".join(values) + "]"))
    rng.shuffle(members)
    return members


def mutate(rng, members):
    line = compact(members)
    kind = rng.randrange(5)
    if kind == 0 and len(members) > 1:
        swapped = list(members)
        a, b = rng.sample(range(len(swapped)), 2)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        return compact(swapped)
    if kind == 4:
        repeated = members + [rng.choice(members)]
        rng.shuffle(repeated)
        return compact(repeated)
    if kind <= 1:
        at = rng.randrange(len(line) + 1)
        return line[:at] + rng.choice(MUTABLE) + line[at:]
    at = rng.choice([j for j, c in enumerate(line) if c in MUTABLE])
    if kind == 2:
        return line[:at] + line[at + 1:]
    return line[:at] + line[at] + line[at:]


def masked(answer):
    return re.sub(r'"cached": (true|false)', '"cached": ?', answer)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("serve_jsonl")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=2000)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    if as_float32(ABOVE_MIDPOINT) != 1 + 2**-23:
        sys.exit("as_float32 rounds %s twice" % ABOVE_MIDPOINT)

    fuzzed, permutations = [], []
    for i in range(args.count):
        members = base_members(rng, i)
        fuzzed.append(mutate(rng, members))
        if i % 10 == 0:
            permuted = list(members)
            rng.shuffle(permuted)
            permutations.append((compact(members), compact(permuted)))
    accepted = {j: oracle(line) for j, line in enumerate(fuzzed)}
    accepted = {j: obj for j, obj in accepted.items() if obj is not None}
    canonical = [dump(accepted[j]) for j in sorted(accepted)]
    lines = fuzzed + canonical + [l for pair in permutations for l in pair]

    run = subprocess.run([args.serve_jsonl, "--small"], check=True,
                         input="\n".join(lines) + "\n", capture_output=True,
                         text=True)
    answers = run.stdout.splitlines()
    if len(answers) != len(lines):
        sys.exit("%d input lines, %d output lines" % (len(lines), len(answers)))
    for line, answer in zip(lines, answers):
        try:
            json.loads(answer)
        except ValueError:
            sys.exit("invalid JSON answer %r to %r" % (answer, line))

    def fail(line, answer, why):
        sys.exit("%s\n  line:   %r\n  answer: %s" % (why, line, answer))

    canonical_answer = dict(zip(sorted(accepted), answers[len(fuzzed):]))
    for j, line in enumerate(fuzzed):
        answer = json.loads(answers[j])
        if j not in accepted:
            if "error" not in answer:
                fail(line, answers[j], "rejected line was answered")
            continue
        if masked(answers[j]) != masked(canonical_answer[j]):
            fail(line, answers[j], "canonical form answered %s"
                 % canonical_answer[j])
        want = predicted_id(accepted[j])
        if want is None and "error" not in answer:
            fail(line, answers[j], "invalid request was answered")
        if want is not None and ("error" in answer or answer["id"] != want):
            fail(line, answers[j], "want a result under id %d" % want)
    tail = answers[len(fuzzed) + len(canonical):]
    for k, (line, permuted) in enumerate(permutations):
        if masked(tail[2 * k]) != masked(tail[2 * k + 1]):
            fail(permuted, tail[2 * k + 1], "permutation of %r answered %s"
                 % (line, tail[2 * k]))

    print("wire fuzz OK: %d mutations (%d valid requests), %d permutations"
          % (len(fuzzed), len(accepted), len(permutations)))


if __name__ == "__main__":
    main()
