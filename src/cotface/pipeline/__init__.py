"""Face processing pipeline: images, detection, gallery, authentication."""

from .auth import (
    AuthConfig,
    AuthOutcome,
    AuthScorers,
    authenticate,
    spoof_gate,
)
from .detect import (
    DetectionBox,
    align,
    detect,
    image_pyramid,
    iou,
    largest_face,
    nms,
)
from .gallery import (
    MAX_EMBEDDINGS_PER_IDENTITY,
    EnrollResult,
    Gallery,
    GalleryFormatError,
    enroll,
    gallery_to_text,
    load_gallery,
    match,
    save_gallery,
)
from .image import (
    GrayImage,
    bilinear_resize,
    crop_region,
    eye_crops,
    laplacian,
    read_pgm,
    rotate_region,
    sharpness_gate,
    write_pgm,
)
