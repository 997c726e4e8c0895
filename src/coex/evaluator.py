"""Exact-match scoring, significance testing, and latency benchmarking."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np


def _normalize(triple) -> tuple[str, str, str]:
    if hasattr(triple, "key"):
        s, p, o = triple.key()
    else:
        s, p, o = triple[0], triple[1], triple[2]
    return (str(s).strip(), str(p).strip(), str(o).strip())


@dataclass(frozen=True)
class ScoreReport:
    precision: float
    recall: float
    f1: float
    true_positives: int
    predicted: int
    gold: int


def f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def score_triples(predictions, gold) -> ScoreReport:
    """Micro-averaged exact match on whitespace-stripped (S, P, O) sets.

    predictions and gold are parallel lists, one collection of triples per
    sentence; duplicates within a sentence collapse before counting.
    """
    if len(predictions) != len(gold):
        raise ValueError(
            f"got {len(predictions)} prediction lists for {len(gold)} gold lists"
        )
    tp = n_pred = n_gold = 0
    for pred_row, gold_row in zip(predictions, gold):
        p_set = {_normalize(t) for t in pred_row}
        g_set = {_normalize(t) for t in gold_row}
        tp += len(p_set & g_set)
        n_pred += len(p_set)
        n_gold += len(g_set)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    return ScoreReport(
        precision=precision,
        recall=recall,
        f1=f1(precision, recall),
        true_positives=tp,
        predicted=n_pred,
        gold=n_gold,
    )


# ---------------------------------------------------------------------------
# two-sample t-test


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    pvalue: float
    df: int


def t_test(a, b) -> TTestResult:
    """Two-sided two-sample Student t-test with pooled variance."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("each sample needs at least two observations")
    mean_a, mean_b = sum(a) / na, sum(b) / nb
    ss_a = sum((v - mean_a) ** 2 for v in a)
    ss_b = sum((v - mean_b) ** 2 for v in b)
    df = na + nb - 2
    pooled = (ss_a + ss_b) / df
    if pooled == 0.0:
        if mean_a == mean_b:
            return TTestResult(statistic=0.0, pvalue=1.0, df=df)
        raise ValueError("samples have zero variance but different means")
    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return TTestResult(statistic=t, pvalue=p, df=df)


# ---------------------------------------------------------------------------
# latency benchmark


def triples_to_payload(triples) -> list[dict]:
    """JSON-ready rows in the same shape the HTTP endpoint returns."""
    rows = []
    for t in triples:
        row = {"subject": t.subject, "predicate": t.predicate, "object": t.object}
        if t.subject_span is not None:
            row["subject_span"] = [t.subject_span.start, t.subject_span.end]
        if t.object_span is not None:
            row["object_span"] = [t.object_span.start, t.object_span.end]
        rows.append(row)
    return rows


@dataclass(frozen=True)
class LatencyReport:
    requests: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    max_ms: float
    mean_request_bytes: float
    mean_response_bytes: float
    latencies_ms: tuple[float, ...]


def benchmark_latency(infer_fn, texts, iterations: int = 1, warmup: int = 1) -> LatencyReport:
    """Time infer_fn over the text list and report latency/size statistics.

    infer_fn takes a text and returns triples; request/response sizes are
    measured on the JSON encodings a service would exchange.
    """
    if not texts:
        raise ValueError("need at least one text")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    for text in texts[: min(len(texts), max(warmup, 0))]:
        infer_fn(text)
    latencies: list[float] = []
    req_bytes = resp_bytes = 0
    for _ in range(iterations):
        for text in texts:
            request = json.dumps({"text": text}, ensure_ascii=False).encode("utf-8")
            t0 = time.perf_counter()
            triples = infer_fn(text)
            latencies.append((time.perf_counter() - t0) * 1000.0)
            response = json.dumps(
                {"triples": triples_to_payload(triples)}, ensure_ascii=False
            ).encode("utf-8")
            req_bytes += len(request)
            resp_bytes += len(response)
    n = len(latencies)
    p50, p95 = np.percentile(latencies, [50, 95])
    return LatencyReport(
        requests=n,
        mean_ms=sum(latencies) / n,
        p50_ms=float(p50),
        p95_ms=float(p95),
        max_ms=max(latencies),
        mean_request_bytes=req_bytes / n,
        mean_response_bytes=resp_bytes / n,
        latencies_ms=tuple(latencies),
    )
