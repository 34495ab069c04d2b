exception Stream_error of string
