"""Character-level tokenization, corpus IO, gold span alignment, synthetic corpora.

Corpus files are JSONL: one {"text": ..., "spo_list": [{"subject", "predicate",
"object", optional "subject_start"/"object_start" char offsets}]} per line.
A schema file is a JSON array of predicate strings; a vocab file holds one
token per line, where line i corresponds to id i + 4 (after the reserved ids).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .autograd import Rng
from .encoder import PAD_ID
from .tagger import RelationSchema, SchemaError, Span, SubjectAnnotation, span_rows

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
UNK_ID, CLS_ID, SEP_ID = 1, 2, 3
RESERVED = (PAD, UNK, CLS, SEP)

NEGATIVE_MAX_SPAN = 10


class CorpusError(ValueError):
    pass


class AlignmentError(ValueError):
    pass


def _is_word_char(c: str) -> bool:
    return c.isascii() and c.isalnum()


def tokenize(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Split into [CLS], content tokens, [SEP] with character offsets.

    CJK and any other non-space character is its own token; maximal ASCII
    letter/digit runs form one token; whitespace is dropped (offsets advance
    past it). The specials carry zero-width offsets.
    """
    tokens = [CLS]
    offsets = [(0, 0)]
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if _is_word_char(c):
            j = i + 1
            while j < n and _is_word_char(text[j]):
                j += 1
            tokens.append(text[i:j])
            offsets.append((i, j))
            i = j
        else:
            tokens.append(c)
            offsets.append((i, i + 1))
            i += 1
    tokens.append(SEP)
    offsets.append((n, n))
    return tokens, offsets


@dataclass
class Vocab:
    tokens: list[str]
    token_to_id: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, toks: list[str]) -> np.ndarray:
        return np.array([self.token_to_id.get(t, UNK_ID) for t in toks], dtype=np.int64)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.tokens[len(RESERVED):]:
                fh.write(t + "\n")

    @classmethod
    def from_tokens(cls, content_tokens) -> "Vocab":
        tokens = list(RESERVED) + list(content_tokens)
        if len(set(tokens)) != len(tokens):
            raise CorpusError("vocab contains duplicate tokens")
        return cls(tokens=tokens, token_to_id={t: i for i, t in enumerate(tokens)})

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            content = [line.rstrip("\n") for line in fh]
        return cls.from_tokens([t for t in content if t])


def build_vocab(corpus) -> Vocab:
    """Frequency-then-lexicographic vocabulary over all corpus tokens."""
    counts = Counter()
    for ex in corpus:
        toks, _ = tokenize(ex.text)
        counts.update(t for t in toks if t not in RESERVED)
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocab.from_tokens(ordered)


@dataclass
class RawTriple:
    subject: str
    predicate: str
    object: str
    subject_start: int | None = None
    object_start: int | None = None


@dataclass
class RawExample:
    text: str
    triples: list[RawTriple]


def has_overlap(ex: RawExample) -> bool:
    """True when some entity occurrence participates in more than one triple."""
    counts = Counter()
    for t in ex.triples:
        counts[("s", t.subject)] += 1
        counts[("o", t.object)] += 1
    by_entity = Counter()
    for (_, name), c in counts.items():
        by_entity[name] += c
    return any(c > 1 for c in by_entity.values())


def save_corpus(corpus, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in corpus:
            spo = []
            for t in ex.triples:
                d = {"subject": t.subject, "predicate": t.predicate, "object": t.object}
                if t.subject_start is not None:
                    d["subject_start"] = t.subject_start
                if t.object_start is not None:
                    d["object_start"] = t.object_start
                spo.append(d)
            fh.write(json.dumps({"text": ex.text, "spo_list": spo}, ensure_ascii=False) + "\n")


def load_corpus(path, schema: RelationSchema | None = None) -> list[RawExample]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                text = rec["text"]
                spo = rec["spo_list"]
                if not isinstance(text, str) or not isinstance(spo, list):
                    raise TypeError("bad field types")
                triples = [
                    RawTriple(
                        subject=t["subject"],
                        predicate=t["predicate"],
                        object=t["object"],
                        subject_start=t.get("subject_start"),
                        object_start=t.get("object_start"),
                    )
                    for t in spo
                ]
            except (KeyError, TypeError, ValueError) as e:
                raise CorpusError(f"line {lineno}: malformed example ({e})") from None
            if schema is not None:
                for t in triples:
                    schema.index(t.predicate)
            out.append(RawExample(text=text, triples=triples))
    return out


def save_schema(schema: RelationSchema, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(list(schema.predicates), fh, ensure_ascii=False, indent=0)


def load_schema(path) -> RelationSchema:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not all(isinstance(p, str) for p in data):
        raise SchemaError(f"{path}: schema file must be a JSON array of predicate strings")
    return RelationSchema(tuple(data))


@dataclass
class EncodedExample:
    """Token ids plus gold facts as token spans: each gold subject with its
    (relation, object) pairs. negative_spans is an int64 [k, 2] array of
    inclusive (start, end) rows."""

    text: str
    input_ids: np.ndarray
    char_offsets: list[tuple[int, int]]
    subjects: list[SubjectAnnotation]
    negative_spans: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    dropped_triples: int = 0


def _truncate(tokens, offsets, max_seq_len):
    if len(tokens) <= max_seq_len:
        return tokens, offsets
    cut = max_seq_len - 1
    tail = offsets[cut - 1][1]
    return tokens[:cut] + [SEP], offsets[:cut] + [(tail, tail)]


def encode_example(
    raw: RawExample, vocab: Vocab, schema: RelationSchema, max_seq_len: int = 128
) -> EncodedExample:
    """Tokenize and align gold triples to token spans.

    Entities align by their given char offset when present, otherwise by first
    occurrence in the text; either way the char range must land exactly on
    token boundaries. Triples that fall outside the (possibly truncated)
    window are dropped and counted, not errors.
    """
    tokens, offsets = tokenize(raw.text)
    tokens, offsets = _truncate(tokens, offsets, max_seq_len)
    n = len(tokens)
    start_of = {}
    end_of = {}
    for idx in range(1, n - 1):
        cs, ce = offsets[idx]
        start_of[cs] = idx
        end_of[ce] = idx

    def locate(entity: str, given: int | None) -> Span | None:
        if given is not None:
            if raw.text[given : given + len(entity)] != entity:
                raise AlignmentError(
                    f"entity {entity!r} not found at offset {given} in {raw.text!r}"
                )
            cs = given
        else:
            cs = raw.text.find(entity)
            if cs < 0:
                raise AlignmentError(f"entity {entity!r} not found in {raw.text!r}")
        ce = cs + len(entity)
        if ce > offsets[n - 2][1]:
            return None  # beyond the truncated window
        ts, te = start_of.get(cs), end_of.get(ce)
        if ts is None or te is None:
            raise AlignmentError(
                f"entity {entity!r} at chars [{cs}, {ce}) does not align to token boundaries"
            )
        return Span(ts, te)

    subjects: dict[Span, SubjectAnnotation] = {}
    dropped = 0
    for t in raw.triples:
        rel = schema.index(t.predicate)
        s_span = locate(t.subject, t.subject_start)
        o_span = locate(t.object, t.object_start)
        if s_span is None or o_span is None:
            dropped += 1
            continue
        objects = subjects.setdefault(s_span, SubjectAnnotation(s_span, [])).objects
        if (rel, o_span) not in objects:
            objects.append((rel, o_span))

    return EncodedExample(
        text=raw.text,
        input_ids=vocab.encode(tokens),
        char_offsets=offsets,
        subjects=list(subjects.values()),
        dropped_triples=dropped,
    )


def encode_corpus(corpus, vocab, schema, max_seq_len: int = 128) -> list[EncodedExample]:
    return [encode_example(ex, vocab, schema, max_seq_len) for ex in corpus]


def sample_negatives(
    ex: EncodedExample, k: int = 128, rng: Rng | None = None, max_span: int = NEGATIVE_MAX_SPAN
) -> EncodedExample:
    """Attach k subject-conditioning spans that are not gold subjects.

    The pool is every content-token span of length 1..max_span in (start,
    end) order; sampling is without replacement and deterministic under the
    given rng, and the drawn rows keep pool order.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if rng is None:
        raise ValueError("sample_negatives requires an rng")
    n = len(ex.input_ids)
    first, last = 1, n - 2  # content region between the specials
    start = np.arange(first, last + 1, dtype=np.int64)[:, None]
    end = start + np.arange(max(max_span, 0), dtype=np.int64)
    keep = end <= last
    gold = span_rows(s.span for s in ex.subjects)
    keep &= ~((start[..., None] == gold[:, 0]) & (end[..., None] == gold[:, 1])).any(axis=2)
    pool = np.stack([np.broadcast_to(start, end.shape)[keep], end[keep]], axis=1)
    picks = rng.permutation(len(pool))[: min(k, len(pool))]
    ex.negative_spans = pool[np.sort(picks)]
    return ex


# ---------------------------------------------------------------------------
# synthetic corpus

DEFAULT_PREDICATES = (
    "composition", "preparation", "storage", "efficacy", "treats", "dosage",
    "origin", "part_used", "harvest", "processing", "flavor", "toxicity",
    "indication", "contraindication", "synonym", "habitat",
)

# closed name lexicons; no name is a substring of another, within or across
# lists, so surface strings locate unambiguously
_HERB_NAMES = (
    "苦参", "黄连", "丹芍", "当归", "天麻", "钩藤", "泽泻", "茯苓", "桂枝", "甘草",
    "荆芥", "薄荷", "贝母", "知母", "贯仲", "柴胡", "白术", "乌梅", "红花", "青黛",
    "紫苏", "黄芪", "山药", "杜仲", "陈皮", "半夏", "防风", "羌活", "独活", "秦艽",
    "金银藤", "龙胆草", "野菊花", "车前子", "五味子", "益智仁", "枸杞子", "女贞子",
    "天南星", "望月砂", "鸡血藤", "夜交藤", "徐长卿", "石菖蒲", "墨旱莲", "密蒙花",
)
_SUBSTANCE_NAMES = (
    "黄酮", "皂苷", "生物碱", "挥发油", "多糖", "鞣质", "甾醇", "苦味素",
    "有机酸", "蒽醌", "香豆素", "绿原酸", "萜烯", "氨基酸", "树脂", "果胶",
)
_PLACE_NAMES = (
    "川西", "滇南", "岭北", "陇中", "终南", "太行", "武夷", "峨眉",
    "长白", "祁连", "天山", "横断", "大巴", "伏牛", "六盘", "幕阜",
)
_PREPARATION_NAMES = (
    "清心丸", "润肺散", "安神汤", "化瘀饮", "止咳露", "舒络胶",
    "健脾丸", "平喘散", "养血汤", "明目饮",
)
_ALIAS_NAMES = (
    "蟾衣草", "凤尾翎", "雪里青", "月下珠", "铁扇叶", "云母蕊",
    "霜降花", "玄水芝", "琥珀须", "灵犀叶", "银锁匙", "彩凰羽",
)
_HABITAT_NAMES = (
    "山坡", "林缘", "溪畔", "谷地", "岩缝", "沼泽", "草甸", "沙洲",
)

_CLOSED_OBJECTS = {
    "storage": ("阴凉干燥库", "密闭瓷罐", "避光木柜", "通风竹篓"),
    "efficacy": ("疏风解表", "活血通经", "燥湿健运", "敛汗固表", "温中降逆"),
    "treats": ("头晕目眩", "湿疹瘙痒", "咽喉肿痛", "脘腹胀满", "关节痹痛", "外感咳嗽"),
    "dosage": ("三钱", "五分", "二两", "半匙", "3g", "10ml"),
    "part_used": ("根茎", "叶片", "花冠", "果实", "种子", "树皮"),
    "harvest": ("春季", "夏末", "秋末", "冬初"),
    "processing": ("蒸晒", "酒炙", "蜜炙", "麸炒"),
    "flavor": ("淡平", "辛温", "咸润", "苦寒"),
    "toxicity": ("无毒", "小毒", "微毒"),
    "indication": ("风寒表证", "湿热内蕴", "气滞血瘀", "阴虚火旺"),
    "contraindication": ("孕妇", "体虚者", "积滞者", "幼儿"),
}

# clause rendered as prefix + objects + suffix; composition/preparation take
# lists; trigger phrases carry anchor characters unique to their relation
_CLAUSES = {
    "composition": ("的成分包括", ""),
    "preparation": ("可制成", ""),
    "storage": ("存放在", ""),
    "efficacy": ("具有", "之效"),
    "treats": ("主治", ""),
    "dosage": ("剂量为", ""),
    "origin": ("产自", ""),
    "part_used": ("以", "入药"),
    "harvest": ("采收在", ""),
    "processing": ("需经", "炮制"),
    "flavor": ("性味", ""),
    "toxicity": ("毒性", ""),
    "indication": ("适宜", ""),
    "contraindication": ("禁忌", ""),
    "synonym": ("又名", ""),
    "habitat": ("生长在", ""),
}

_LIST_PREDICATES = ("composition", "preparation")
_SINGLE_PREDICATES = tuple(p for p in _CLAUSES if p not in _LIST_PREDICATES)


@dataclass
class SynthConfig:
    n_sentences: int
    overlap_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_sentences < 0:
            raise ValueError("n_sentences must be non-negative")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must be in [0, 1]")


def default_schema() -> RelationSchema:
    return RelationSchema(DEFAULT_PREDICATES)


class _Builder:
    def __init__(self):
        self.parts: list[str] = []
        self.length = 0

    def add(self, piece: str) -> int:
        start = self.length
        self.parts.append(piece)
        self.length += len(piece)
        return start

    def text(self) -> str:
        return "".join(self.parts)


def _pick(rng: Rng, seq):
    return seq[int(rng.integers(0, len(seq)))]


def _object_for(pred: str, rng: Rng) -> str:
    if pred == "composition":
        return _pick(rng, _SUBSTANCE_NAMES)
    if pred == "preparation":
        return _pick(rng, _PREPARATION_NAMES)
    if pred == "origin":
        return _pick(rng, _PLACE_NAMES)
    if pred == "habitat":
        return _pick(rng, _HABITAT_NAMES)
    if pred == "synonym":
        return _pick(rng, _ALIAS_NAMES)
    return _pick(rng, _CLOSED_OBJECTS[pred])


def _clause(b: _Builder, pred: str, *objs: str) -> list[int]:
    """Render pred's clause over objs, listed as a、b和c; return each
    object's char offset."""
    prefix, suffix = _CLAUSES[pred]
    b.add(prefix)
    at = []
    for i, o in enumerate(objs):
        at.append(b.add(o))
        if i < len(objs) - 2:
            b.add("、")
        elif i == len(objs) - 2:
            b.add("和")
    b.add(suffix)
    return at


def _distinct(rng: Rng, make, taken: set[str], tries: int = 30) -> str:
    for _ in range(tries):
        cand = make(rng)
        if cand not in taken and not any(cand in t or t in cand for t in taken):
            taken.add(cand)
            return cand
    taken.add(cand)
    return cand


def generate_synthetic_corpus(config: SynthConfig) -> list[RawExample]:
    """Deterministic templated sentences with exact gold char offsets.

    Each sentence holds 1-6 triples. With probability overlap_fraction a
    sentence is built to overlap: either one subject shared by several
    triples, or one object shared by two subjects. The templates cover
    exactly the default schema.
    """
    rng = Rng(config.seed)
    corpus = []
    for _ in range(config.n_sentences):
        overlapping = float(rng.random(())) < config.overlap_fraction
        taken: set[str] = set()
        b = _Builder()
        triples: list[RawTriple] = []
        subject = _distinct(rng, lambda r: _pick(r, _HERB_NAMES), taken)
        if overlapping:
            kind = int(rng.integers(0, 3))
        else:
            kind = 3
        if kind == 0:
            # one subject, one list predicate, several objects
            pred = _pick(rng, _LIST_PREDICATES)
            count = int(rng.integers(2, 5))
            objs = [_distinct(rng, lambda r: _object_for(pred, r), taken) for _ in range(count)]
            s_at = b.add(subject)
            for o, o_at in zip(objs, _clause(b, pred, *objs)):
                triples.append(RawTriple(subject, pred, o, s_at, o_at))
            b.add("。")
        elif kind == 1:
            # one subject, several single-object predicates
            count = int(rng.integers(2, 4))
            picks = rng.permutation(len(_SINGLE_PREDICATES))[:count]
            s_at = b.add(subject)
            for i, pi in enumerate(picks):
                pred = _SINGLE_PREDICATES[int(pi)]
                obj = _distinct(rng, lambda r: _object_for(pred, r), taken)
                [o_at] = _clause(b, pred, obj)
                b.add("," if i < count - 1 else "。")
                triples.append(RawTriple(subject, pred, obj, s_at, o_at))
        elif kind == 2:
            # two subjects sharing one object
            other = _distinct(rng, lambda r: _pick(r, _HERB_NAMES), taken)
            pred = _pick(rng, _SINGLE_PREDICATES)
            obj = _distinct(rng, lambda r: _object_for(pred, r), taken)
            s1_at = b.add(subject)
            b.add("和")
            s2_at = b.add(other)
            b.add("均")
            [o_at] = _clause(b, pred, obj)
            b.add("。")
            triples.append(RawTriple(subject, pred, obj, s1_at, o_at))
            triples.append(RawTriple(other, pred, obj, s2_at, o_at))
        else:
            # plain sentence, single triple
            pred = _pick(rng, _SINGLE_PREDICATES + _LIST_PREDICATES)
            obj = _distinct(rng, lambda r: _object_for(pred, r), taken)
            s_at = b.add(subject)
            [o_at] = _clause(b, pred, obj)
            b.add("。")
            triples.append(RawTriple(subject, pred, obj, s_at, o_at))
        corpus.append(RawExample(text=b.text(), triples=triples))
    return corpus
