"""Prompt construction for LLM judges: templates, placeholders, truncation.

Templates are plain text with bare ``{name}`` str.format placeholders;
``{{`` and ``}}`` are literal braces. datamodel.KINDS names the placeholder
each document slot of a request kind fills; every template takes {query}:

  pointwise  {query} {doc}
  triplet    {query} {doc} {ref}
  duel       {query} {doc_i} {doc_j}
  setwise    {query} {docs}

PromptTemplates checks each template when it is built, so rendering cannot
fail. TemplateError names the first fault in template order: a placeholder
the kind lacks or does not take, one with a conversion or format spec, or a
lone brace. from_dir raises HarnessError for a template file that is not
UTF-8 and a directory that would change nothing. For setwise requests,
{docs} expands to one lettered "Passage X: ..." block per group member,
letters matching the request's labels. Document texts longer than the
configured cap are cut at the cap and a truncation marker appended.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from string import Formatter

from ..datamodel import KINDS, HarnessError
from .base import JudgeRequest, TemplateError

TRUNCATION_MARKER = " [...]"

DEFAULT_TEMPLATES = {
    "pointwise": (
        "Passage: {doc}\n"
        "Query: {query}\n"
        "Does the passage answer the query? Answer yes or no.\n"
        "Answer:"
    ),
    "triplet": (
        "Query: {query}\n\n"
        "Passage A: {doc}\n\n"
        "Passage B: {ref}\n\n"
        "Which passage is more relevant to the query? Answer A or B.\n"
        "Answer:"
    ),
    "duel": (
        "Query: {query}\n\n"
        "Passage A: {doc_i}\n\n"
        "Passage B: {doc_j}\n\n"
        "Which passage is more relevant to the query? Answer A or B.\n"
        "Answer:"
    ),
    "setwise": (
        "Query: {query}\n\n"
        "{docs}\n\n"
        "Which passage is most relevant to the query? "
        "Answer with the passage letter.\n"
        "Answer:"
    ),
}


@dataclass(frozen=True)
class PromptTemplates:
    """One template string per request kind, checked for the KINDS placeholders when built."""

    pointwise: str
    triplet: str
    duel: str
    setwise: str

    def __post_init__(self):
        for kind, (_, _, _, slots) in KINDS.items():
            names, found = ("query", *slots), set()
            try:
                for _, name, spec, conversion in Formatter().parse(getattr(self, kind)):
                    if name is not None and name not in names:
                        raise TemplateError("{" + name + "}", "not a known placeholder")
                    if conversion or spec:
                        written = "{" + name + (f"!{conversion}" if conversion else "")
                        written += (f":{spec}" if spec else "") + "}"
                        raise TemplateError(written, "takes no conversion or format spec")
                    found.add(name)
            except ValueError as exc:
                raise TemplateError(kind, f"malformed template: {exc}") from None
            for name in names:
                if name not in found:
                    raise TemplateError("{" + name + "}", f"missing from the {kind} template")

    @classmethod
    def defaults(cls) -> "PromptTemplates":
        return cls(**DEFAULT_TEMPLATES)

    @classmethod
    def from_dir(cls, directory) -> "PromptTemplates":
        """Load ``<kind>.txt`` files; kinds without a file keep the default.

        A ``.txt`` file with any other name, or a directory without a
        ``<kind>.txt``, is a HarnessError: loading it would change nothing.
        """
        directory = Path(directory)
        kinds = {f"{kind}.txt": kind for kind in KINDS}
        expected = "expected one of " + ", ".join(kinds)
        paths = sorted(path for path in directory.glob("*.txt") if path.is_file())
        if not paths:
            raise HarnessError(f"{directory}: no template file; {expected}")
        values = dict(DEFAULT_TEMPLATES)
        for path in paths:
            if path.name not in kinds:
                raise HarnessError(f"{path}: not a template name; {expected}")
            try:
                values[kinds[path.name]] = path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                byte = exc.object[exc.start]
                raise HarnessError(
                    f"{path}: not valid UTF-8 (byte 0x{byte:02x} at offset {exc.start})"
                ) from None
        return cls(**values)


def truncate_text(text: str, max_chars: int) -> str:
    if max_chars and len(text) > max_chars:
        return text[:max_chars] + TRUNCATION_MARKER
    return text


def build_prompt(
    request: JudgeRequest,
    templates: PromptTemplates,
    max_doc_chars: int = 0,
) -> str:
    """Substitute the request into its kind's template."""
    kind = request.kind
    texts = [truncate_text(doc.text, max_doc_chars) for doc in request.docs]
    if kind == "setwise":
        blocks = [f"Passage {label}: {text}" for label, text in zip(request.labels, texts)]
        fields = {"docs": "\n\n".join(blocks)}
    else:
        fields = dict(zip(KINDS[kind][3], texts))
    return getattr(templates, kind).format(query=request.query.text, **fields)
