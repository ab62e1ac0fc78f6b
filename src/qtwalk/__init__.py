"""qtwalk: RDF-star graph embeddings via quoted-triple-aware walks."""

__version__ = "0.1.0"
