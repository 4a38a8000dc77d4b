import json

from repro import wire

JSON_HEADERS = {"Content-Type": "application/json"}


def post_list_run(client, key, arrays, scalars, **options) -> dict:
    """POST a ``/run`` written the way a hand-written JSON client writes
    it: each array a float list (:func:`repro.wire.jsonable_array`) with
    its ``array_dtypes`` tag.  Returns the reply as parsed JSON, arrays
    still in the form the server chose."""
    body = {
        "key": key,
        "arrays": {name: wire.jsonable_array(a) for name, a in arrays.items()},
        "array_dtypes": {name: a.dtype.str for name, a in arrays.items()},
        "scalars": dict(scalars),
        **options,
    }
    _, raw = client.request_bytes(
        "POST", "/run", json.dumps(body, allow_nan=False).encode(), JSON_HEADERS
    )
    return json.loads(raw)
